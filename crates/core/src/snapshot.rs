//! Crack-state records — the piece-map export/import layer behind the
//! durability subsystem (see `PERSISTENCE.md` at the repository root).
//!
//! The paper treats the cracker index as a session-local auxiliary
//! structure (§5.2); keeping a restarted store *warm* means persisting
//! exactly three things per cracked column: the physically reorganized
//! value/OID arrays, the boundary map (key + split position — tiny), and
//! the pending-update overlay. [`ColumnSnapshot::encode`] writes those
//! straight from a live [`CrackerColumn`] into a checkpoint payload body,
//! with no intermediate copy; [`ColumnSnapshot::decode`] reads them back
//! and [`ColumnSnapshot::restore`] rebuilds the column from them.
//! [`ConcurrentSnapshot`] does the same for either latching mode of a
//! [`ConcurrentColumn`], reading one shard at a time under its read
//! latch. The bytes of each field are [`storage::codec`]'s: this module
//! only fixes their order.
//!
//! Restore never trusts the snapshot: boundary positions are re-validated
//! against the actual values in `O(n + p)`
//! ([`CrackerIndex::check_pieces`]) and the sharded range invariant is
//! re-checked ([`ShardedCrackerColumn::from_parts`]), so a tampered
//! checkpoint that still passes its checksum fails loudly instead of
//! yielding a silently wrong column. Recency ticks and cost counters are
//! deliberately *not* persisted — they restart at zero, which only delays
//! LRU fusion and resets instrumentation, never answers.
//!
//! Records are concrete over `i64` (the engine's cracked-attribute type):
//! keeping the on-disk schema monomorphic makes the checkpoint format a
//! stable, documentable artifact.

use crate::column::CrackerColumn;
use crate::concurrent::SharedCrackerColumn;
use crate::config::CrackerConfig;
use crate::crack::BoundaryKey;
use crate::index::CrackerIndex;
use crate::sharded::{ConcurrentColumn, ShardedCrackerColumn};
use storage::codec::{self, Reader};
use storage::{StorageError, StorageResult};

/// One crack boundary as persisted: the [`BoundaryKey`] flattened next to
/// its split position. Recency is not persisted (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryRecord {
    /// Boundary value.
    pub value: i64,
    /// Whether values equal to `value` fall before the boundary.
    pub lte: bool,
    /// Split position: slots before `pos` are "before" the key.
    pub pos: usize,
}

impl BoundaryRecord {
    /// The in-memory boundary key this record denotes.
    pub fn key(&self) -> BoundaryKey<i64> {
        if self.lte {
            BoundaryKey::le(self.value)
        } else {
            BoundaryKey::lt(self.value)
        }
    }
}

/// Everything worth persisting about one [`CrackerColumn`], decoded: the
/// cracked arrays, the piece map, and the pending-update overlay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnSnapshot {
    /// Cracked values in physical (piece) order.
    pub values: Vec<i64>,
    /// Parallel OID array.
    pub oids: Vec<u32>,
    /// Crack boundaries in ascending key order.
    pub boundaries: Vec<BoundaryRecord>,
    /// Staged-but-unmerged inserts, in staging order.
    pub pending_inserts: Vec<(u32, i64)>,
    /// OIDs staged for deletion (sorted for a canonical encoding).
    pub pending_deletes: Vec<u32>,
}

impl ColumnSnapshot {
    /// Append the persistent state of `col` to a payload body, read
    /// straight from its arrays: values, OIDs, the boundaries as three
    /// parallel arrays (value, `lte`, position), the staged inserts as
    /// two (OID, value), and the sorted pending deletes.
    pub fn encode(col: &CrackerColumn<i64>, buf: &mut Vec<u8>) {
        codec::put_ints(buf, col.values());
        codec::put_ints(buf, col.oids());
        let bounds = col.index().boundaries();
        codec::put_int_iter(buf, bounds.clone().map(|(k, _)| k.value));
        codec::put_int_iter(buf, bounds.clone().map(|(k, _)| i64::from(k.lte)));
        codec::put_int_iter(buf, bounds.map(|(_, info)| info.pos as i64));
        let inserts = col.pending.staged_inserts();
        codec::put_int_iter(buf, inserts.iter().map(|&(oid, _)| i64::from(oid)));
        codec::put_int_iter(buf, inserts.iter().map(|&(_, v)| v));
        codec::put_ints(buf, &sorted_deletes(col));
    }

    /// Read one column's state written by [`encode`](Self::encode).
    pub fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let values = r.ints()?;
        let oids = r.ints()?;
        let (keys, lte, pos) = (r.ints()?, r.ints::<bool>()?, r.ints()?);
        let (insert_oids, insert_values) = (r.ints::<u32>()?, r.ints::<i64>()?);
        let pending_deletes = r.ints()?;
        if lte.len() != keys.len() || pos.len() != keys.len() {
            return Err(StorageError::PersistFormat(
                "boundary arrays differ in length".to_string(),
            ));
        }
        if insert_values.len() != insert_oids.len() {
            return Err(StorageError::PersistFormat(
                "staged insert arrays differ in length".to_string(),
            ));
        }
        let boundaries = (keys.into_iter().zip(lte).zip(pos))
            .map(|((value, lte), pos)| BoundaryRecord { value, lte, pos })
            .collect();
        Ok(ColumnSnapshot {
            values,
            oids,
            boundaries,
            pending_inserts: insert_oids.into_iter().zip(insert_values).collect(),
            pending_deletes,
        })
    }

    /// Rebuild a column from this snapshot, re-validating every invariant.
    /// The arrays move into the column; nothing is copied.
    ///
    /// The piece map is re-imposed boundary by boundary and then checked
    /// against the actual values ([`CrackerIndex::check_pieces`]); the
    /// overlay is re-staged through the public update API so the
    /// insert/delete disjointness invariant is re-established by
    /// construction. Any inconsistency is an error — a recovered column is
    /// either exactly the captured one or refused.
    pub fn restore(self, config: CrackerConfig) -> Result<CrackerColumn<i64>, String> {
        if self.values.len() != self.oids.len() {
            return Err(format!(
                "column snapshot misaligned: {} values vs {} oids",
                self.values.len(),
                self.oids.len()
            ));
        }
        let n = self.values.len();
        let mut col = CrackerColumn::from_pairs(self.values, self.oids, config);
        {
            let index = col.index_mut();
            for b in &self.boundaries {
                if b.pos > n {
                    return Err(format!(
                        "boundary {:?} position {} beyond column end {n}",
                        b.key(),
                        b.pos,
                    ));
                }
                index.set_position(b.key(), b.pos);
            }
        }
        col.index().check_pieces(col.values())?;
        for (oid, v) in self.pending_inserts {
            col.insert(oid, v);
        }
        for oid in self.pending_deletes {
            if !col.delete(oid) {
                return Err(format!(
                    "pending delete references unknown oid {oid} — snapshot corrupt"
                ));
            }
        }
        Ok(col)
    }

    /// Cheap dirty-tracking fingerprint of a column's persistent state:
    /// two snapshots of the same column are byte-identical whenever its
    /// fingerprints match, so an unchanged fingerprint lets the
    /// checkpoint layer skip re-encoding a warm column. Layout changes
    /// are counter-based (cracks/fusions/merges are monotone); the
    /// overlay is covered by a content hash, *not* its length — the
    /// overlay length is not monotone (deleting a staged insert cancels
    /// it), so a cancel-plus-restage between checkpoints would collide
    /// on length and silently carry a stale payload forward.
    pub fn fingerprint(col: &CrackerColumn<i64>) -> String {
        let s = col.stats();
        format!(
            "n{}b{}c{}f{}m{}t{}o{:016x}",
            col.len(),
            col.index().boundary_count(),
            s.cracks,
            s.fusions,
            s.merges,
            s.tuples_moved,
            overlay_hash(col)
        )
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Content hash of a column's pending-update overlay: the staged inserts
/// in staging order plus the pending-delete set in sorted order, each
/// section prefixed by its length so no two distinct overlays share an
/// encoding. Two columns hash equal exactly when their encoded
/// `pending_inserts`/`pending_deletes` would be equal — the property the
/// fingerprint needs and the raw overlay *length* cannot provide.
fn overlay_hash(col: &CrackerColumn<i64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let inserts = col.pending.staged_inserts();
    fnv1a(&mut h, &(inserts.len() as u64).to_le_bytes());
    for &(oid, v) in inserts {
        fnv1a(&mut h, &oid.to_le_bytes());
        fnv1a(&mut h, &v.to_le_bytes());
    }
    let deletes = sorted_deletes(col);
    fnv1a(&mut h, &(deletes.len() as u64).to_le_bytes());
    for oid in deletes {
        fnv1a(&mut h, &oid.to_le_bytes());
    }
    h
}

/// The pending-delete set of `col` in ascending order (a canonical
/// encoding of a set kept in no particular order).
fn sorted_deletes(col: &CrackerColumn<i64>) -> Vec<u32> {
    let mut deletes: Vec<u32> = col.pending.deleted_set().iter().collect();
    deletes.sort_unstable();
    deletes
}

/// The persistent state of a [`ConcurrentColumn`] under either latching
/// mode, decoded: a single-lock column is one [`ColumnSnapshot`]; a
/// sharded column is its split points plus one snapshot per shard in
/// ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrentSnapshot {
    /// True for [`ShardedCrackerColumn`]; false for the single-lock mode.
    pub sharded: bool,
    /// Ascending split values (empty in single-lock mode).
    pub splits: Vec<i64>,
    /// Per-shard snapshots (exactly one in single-lock mode).
    pub shards: Vec<ColumnSnapshot>,
}

impl ConcurrentSnapshot {
    /// Append the persistent state of `col` to a payload body: the mode
    /// tag, the split points and the shard count, then each shard's
    /// [`ColumnSnapshot::encode`], taken under that shard's read latch one
    /// shard at a time in ascending order.
    pub fn encode(col: &ConcurrentColumn<i64>, buf: &mut Vec<u8>) {
        match col {
            ConcurrentColumn::Single(c) => {
                codec::put_u8(buf, 0);
                codec::put_ints::<i64>(buf, &[]);
                codec::put_u64(buf, 1);
                c.read_with(|c| ColumnSnapshot::encode(c, buf));
            }
            ConcurrentColumn::Sharded(s) => {
                codec::put_u8(buf, 1);
                codec::put_ints(buf, s.splits());
                codec::put_u64(buf, s.splits().len() as u64 + 1);
                s.read_shards(|c| ColumnSnapshot::encode(c, buf));
            }
        }
    }

    /// Decode a payload body written by [`encode`](Self::encode); the
    /// whole body must be consumed.
    pub fn decode(body: &[u8]) -> StorageResult<Self> {
        let mut r = Reader::new(body);
        let sharded = match r.u8()? {
            0 => false,
            1 => true,
            t => {
                return Err(StorageError::PersistFormat(format!(
                    "unknown concurrency tag {t}"
                )));
            }
        };
        let splits = r.ints()?;
        let n = r.count()?;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(ColumnSnapshot::decode(&mut r)?);
        }
        r.finish()?;
        Ok(ConcurrentSnapshot {
            sharded,
            splits,
            shards,
        })
    }

    /// Rebuild a concurrent column, re-validating per-shard piece maps
    /// and the sharded range invariant.
    pub fn restore(self, config: CrackerConfig) -> Result<ConcurrentColumn<i64>, String> {
        if !self.sharded {
            if !self.splits.is_empty() {
                return Err("single-lock snapshot must not carry splits".to_string());
            }
            let Ok([shard]) = <[ColumnSnapshot; 1]>::try_from(self.shards) else {
                return Err("single-lock snapshot must hold exactly one shard".to_string());
            };
            return Ok(ConcurrentColumn::Single(SharedCrackerColumn::from_column(
                shard.restore(config)?,
            )));
        }
        let mut columns = Vec::with_capacity(self.shards.len());
        for (i, snap) in self.shards.into_iter().enumerate() {
            columns.push(
                snap.restore(config)
                    .map_err(|e| format!("shard {i}: {e}"))?,
            );
        }
        let sharded = ShardedCrackerColumn::from_parts(self.splits, columns)?;
        Ok(ConcurrentColumn::Sharded(sharded))
    }

    /// Dirty-tracking fingerprint: the mode tag plus every shard's
    /// [`ColumnSnapshot::fingerprint`], in ascending shard order.
    pub fn fingerprint(col: &ConcurrentColumn<i64>) -> String {
        match col {
            ConcurrentColumn::Single(c) => {
                format!("single:{}", c.read_with(ColumnSnapshot::fingerprint))
            }
            ConcurrentColumn::Sharded(s) => {
                format!(
                    "sharded:{}",
                    s.read_shards(ColumnSnapshot::fingerprint).join("/")
                )
            }
        }
    }
}

/// Re-validate a restored index against values — re-exported convenience
/// so callers outside the crate can run the same `O(n + p)` check the
/// restore path uses.
pub fn check_piece_map(index: &CrackerIndex<i64>, vals: &[i64]) -> Result<(), String> {
    index.check_pieces(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::RangePred;
    use crate::sharded::ConcurrencyMode;

    /// What a checkpoint of `col` decodes to.
    fn capture(col: &CrackerColumn<i64>) -> ColumnSnapshot {
        let mut buf = Vec::new();
        ColumnSnapshot::encode(col, &mut buf);
        let mut r = Reader::new(&buf);
        let snap = ColumnSnapshot::decode(&mut r).unwrap();
        r.finish().unwrap();
        snap
    }

    fn encode_concurrent(col: &ConcurrentColumn<i64>) -> Vec<u8> {
        let mut buf = Vec::new();
        ConcurrentSnapshot::encode(col, &mut buf);
        buf
    }

    fn capture_concurrent(col: &ConcurrentColumn<i64>) -> ConcurrentSnapshot {
        ConcurrentSnapshot::decode(&encode_concurrent(col)).unwrap()
    }

    fn warmed_column() -> CrackerColumn<i64> {
        let mut c = CrackerColumn::new((0..500).rev().collect::<Vec<i64>>());
        c.select(RangePred::between(100, 200));
        c.select(RangePred::lt(50));
        c.select(RangePred::ge(400));
        c.insert(1_000, 150);
        c.insert(1_001, 425);
        c.delete(3); // cracked value 496
        c
    }

    #[test]
    fn column_snapshot_roundtrip_preserves_layout_and_overlay() {
        let col = warmed_column();
        let snap = capture(&col);
        let restored = snap.clone().restore(*col.config()).unwrap();
        assert_eq!(restored.values(), col.values());
        assert_eq!(restored.oids(), col.oids());
        assert_eq!(restored.piece_count(), col.piece_count());
        assert_eq!(restored.pending_len(), col.pending_len());
        restored.validate().unwrap();
        // Snapshot of the restored column is identical: capture∘restore
        // is idempotent.
        assert_eq!(capture(&restored), snap);
    }

    #[test]
    fn restored_column_answers_like_the_original() {
        let col = warmed_column();
        let snap = capture(&col);
        let mut restored = snap.restore(*col.config()).unwrap();
        let mut original = col;
        for pred in [
            RangePred::between(100, 200),
            RangePred::eq(150),
            RangePred::ge(400),
            RangePred::with_bounds(None, None),
        ] {
            let mut a = original.select_oids(pred);
            let mut b = restored.select_oids(pred);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "pred {pred:?}");
        }
    }

    #[test]
    fn tampered_boundary_position_is_rejected() {
        let col = warmed_column();
        let mut snap = capture(&col);
        snap.boundaries[0].pos += 1;
        assert!(snap.restore(*col.config()).is_err());
    }

    #[test]
    fn misaligned_and_out_of_range_snapshots_are_rejected() {
        let col = warmed_column();
        let mut snap = capture(&col);
        snap.oids.pop();
        assert!(snap.restore(*col.config()).is_err());

        let mut snap = capture(&col);
        snap.boundaries[0].pos = snap.values.len() + 7;
        assert!(snap.restore(*col.config()).is_err());

        let mut snap = capture(&col);
        snap.pending_deletes.push(999_999);
        assert!(snap.restore(*col.config()).is_err());
    }

    #[test]
    fn fingerprint_tracks_every_layout_change() {
        let mut col = CrackerColumn::new((0..300).rev().collect::<Vec<i64>>());
        let f0 = ColumnSnapshot::fingerprint(&col);
        col.select(RangePred::between(50, 100)); // cracks
        let f1 = ColumnSnapshot::fingerprint(&col);
        assert_ne!(f0, f1);
        col.insert(900, 75); // overlay grows
        let f2 = ColumnSnapshot::fingerprint(&col);
        assert_ne!(f1, f2);
        col.merge_pending(); // overlay folded in
        let f3 = ColumnSnapshot::fingerprint(&col);
        assert_ne!(f2, f3);
        // A repeated warm query changes nothing persistent.
        col.select(RangePred::between(50, 100));
        assert_eq!(ColumnSnapshot::fingerprint(&col), f3);
    }

    #[test]
    fn fingerprint_sees_overlay_swap_that_preserves_length() {
        // Regression: deleting a staged insert cancels it (the overlay
        // shrinks), so a cancel followed by one fresh staged insert leaves
        // pending_len — and every monotone layout counter — unchanged. A
        // length-based fingerprint collides here and the checkpoint layer
        // would carry the stale overlay forward, resurrecting the
        // cancelled insert and losing the fresh one on recovery.
        let mut col = CrackerColumn::new((0..100).collect::<Vec<i64>>());
        col.insert(500, 10);
        let f_x = ColumnSnapshot::fingerprint(&col);
        assert!(col.delete(500), "delete must cancel the staged insert");
        col.insert(501, 20);
        assert_eq!(col.pending_len(), 1, "overlay length is back to 1");
        let f_z = ColumnSnapshot::fingerprint(&col);
        assert_ne!(f_x, f_z, "same overlay length, different contents");
        // Same contents, rebuilt independently, must still hash equal —
        // otherwise incremental checkpoints would never reuse a payload.
        let mut twin = CrackerColumn::new((0..100).collect::<Vec<i64>>());
        twin.insert(501, 20);
        assert_eq!(ColumnSnapshot::fingerprint(&twin), f_z);
    }

    #[test]
    fn concurrent_snapshot_roundtrip_both_modes() {
        let vals: Vec<i64> = (0..4_000).map(|i| (i * 37) % 4_000).collect();
        for mode in [
            ConcurrencyMode::SingleLock,
            ConcurrencyMode::Sharded { shards: 4 },
        ] {
            let col = ConcurrentColumn::build(vals.clone(), CrackerConfig::default(), mode);
            col.count(RangePred::between(500, 1_500));
            col.insert(90_000, 1_000);
            col.delete(17);
            let snap = capture_concurrent(&col);
            let restored = snap.clone().restore(CrackerConfig::default()).unwrap();
            assert_eq!(restored.mode(), col.mode(), "mode {mode:?}");
            assert_eq!(restored.piece_count(), col.piece_count());
            for pred in [
                RangePred::between(500, 1_500),
                RangePred::eq(1_000),
                RangePred::with_bounds(None, None),
            ] {
                let mut a = col.select_oids(pred);
                let mut b = restored.select_oids(pred);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "mode {mode:?} pred {pred:?}");
            }
            restored.validate().unwrap();
            // Counters restart at zero after restore, so fingerprints are
            // comparable only within one column's lifetime — but the
            // *snapshot* of the restored overlay/layout must match.
            assert_eq!(
                capture_concurrent(&restored).shards.len(),
                snap.shards.len()
            );
        }
    }

    #[test]
    fn sharded_snapshot_with_wrong_shape_is_rejected() {
        let vals: Vec<i64> = (0..1_000).collect();
        let col = ConcurrentColumn::build(
            vals,
            CrackerConfig::default(),
            ConcurrencyMode::Sharded { shards: 4 },
        );
        let good = capture_concurrent(&col);

        let mut snap = good.clone();
        snap.shards.pop();
        assert!(snap.restore(CrackerConfig::default()).is_err());

        let mut snap = good.clone();
        snap.splits.reverse(); // no longer ascending
        assert!(snap.restore(CrackerConfig::default()).is_err());

        // A value planted outside its shard's range is caught.
        let mut snap = good.clone();
        snap.shards[0].values[0] = i64::MAX;
        assert!(snap.restore(CrackerConfig::default()).is_err());

        let mut snap = good;
        snap.sharded = false;
        assert!(snap.restore(CrackerConfig::default()).is_err());
    }

    #[test]
    fn a_flipped_value_or_oid_passes_check_pieces_but_not_the_checksum() {
        // One crack at 500: the first piece holds values below 500, so
        // flipping the low bit of its first value keeps it there, and
        // nothing checks OIDs against values at all.
        let col = ConcurrentColumn::build(
            (0..1_000).rev().collect(),
            CrackerConfig::default(),
            ConcurrencyMode::SingleLock,
        );
        col.count(RangePred::lt(500));
        let body = encode_concurrent(&col);
        let mut frame = Vec::new();
        let start = codec::begin_frame(&mut frame);
        frame.extend_from_slice(&body);
        codec::end_frame(&mut frame, start, codec::FrameKind::Payload);
        // Body layout: tag (1), empty splits (17), shard count (8), then
        // the values array (17-byte head, 2-byte offsets for 0..1000) and
        // the OIDs array (same).
        let first_value = 1 + 17 + 8 + 17;
        let first_oid = first_value + 2 * 1_000 + 17;
        for at in [first_value, first_oid] {
            let mut flipped = body.clone();
            flipped[at] ^= 1;
            let snap = ConcurrentSnapshot::decode(&flipped).unwrap();
            assert_ne!(snap, capture_concurrent(&col));
            snap.restore(CrackerConfig::default())
                .expect("the piece map cannot see this flip");
            let mut flipped = frame.clone();
            flipped[codec::HEADER_LEN + at] ^= 1;
            let err = codec::open_frame(&flipped, codec::FrameKind::Payload).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn decode_and_restore_are_total(
            junk in proptest::collection::vec(0u8..=255, 0..96),
            shards in 0usize..3,
        ) {
            // Arbitrary bytes, every truncation of a real payload body and
            // every single-bit flip of it: decode is a typed error or a
            // snapshot, and restore refuses or rebuilds — never a panic.
            let mode = match shards {
                0 => ConcurrencyMode::SingleLock,
                n => ConcurrencyMode::Sharded { shards: n + 1 },
            };
            let col = ConcurrentColumn::build(
                (0..40).map(|i| (i * 7) % 40).collect(),
                CrackerConfig::default(),
                mode,
            );
            col.count(RangePred::between(10, 20));
            col.insert(90, 15);
            col.delete(3);
            let body = encode_concurrent(&col);
            let mut inputs = vec![junk];
            inputs.extend((0..body.len()).map(|cut| body[..cut].to_vec()));
            for bit in 0..body.len() * 8 {
                let mut flipped = body.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                inputs.push(flipped);
            }
            for bytes in inputs {
                match ConcurrentSnapshot::decode(&bytes) {
                    Ok(snap) => {
                        let _ = snap.restore(CrackerConfig::default());
                    }
                    Err(e) => proptest::prop_assert!(matches!(e, StorageError::PersistFormat(_))),
                }
            }
        }
    }

    #[test]
    fn check_piece_map_reexport_agrees_with_validate() {
        let mut col = CrackerColumn::new((0..200).rev().collect::<Vec<i64>>());
        col.select(RangePred::between(40, 120));
        check_piece_map(col.index(), col.values()).unwrap();
        col.index().validate(col.values()).unwrap();
    }
}
