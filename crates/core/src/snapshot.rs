//! Crack-state records — the piece-map export/import layer behind the
//! durability subsystem (see `PERSISTENCE.md` at the repository root).
//!
//! The paper treats the cracker index as a session-local auxiliary
//! structure (§5.2); keeping a restarted store *warm* means persisting
//! three things per cracked column: its tuples, the boundary map (key +
//! split position — tiny), and the pending-update overlay. The tuples
//! are persisted as an *origin* plus a journal:
//!
//! * [`ColumnSnapshot`] is the origin: the physically reorganized
//!   value/OID arrays, with the boundaries and overlay of that moment.
//!   [`ColumnSnapshot::encode`] writes them straight from a live
//!   [`CrackerColumn`] into a checkpoint payload body, with no
//!   intermediate copy; [`ColumnSnapshot::decode`] reads them back and
//!   [`ColumnSnapshot::restore`] rebuilds the column from them.
//! * [`ColumnDelta`] is what changed since: the column's
//!   [`MergeJournal`] (the tuples each update merge inserted and
//!   deleted), its current boundaries and its current overlay. A ripple
//!   merge shifts nearly every piece, so the arrays differ almost
//!   everywhere between two checkpoints while the journal and the
//!   boundaries stay small. [`ColumnSnapshot::restore_with`] replays a
//!   delta onto its origin.
//!
//! [`ConcurrentSnapshot`] and [`ConcurrentDelta`] do the same for a
//! [`ConcurrentColumn`] of any shard count, reading one shard at a time
//! under its read latch. The bytes of each field are
//! [`storage::codec`]'s: this module only fixes their order.
//!
//! Restore never trusts the snapshot: boundary positions are re-validated
//! against the actual values in `O(n + p)`
//! ([`CrackerIndex::check_pieces`]), a replayed delta must put every
//! boundary exactly where it records it, and the sharded range invariant
//! is re-checked ([`ConcurrentColumn::from_parts`]), so a tampered
//! checkpoint that still passes its checksum fails loudly instead of
//! yielding a silently wrong column. Cost counters are deliberately *not*
//! persisted — they restart at zero, which resets instrumentation, never
//! answers.
//!
//! Records are concrete over `i64` (the engine's cracked-attribute type):
//! keeping the on-disk schema monomorphic makes the checkpoint format a
//! stable, documentable artifact.

use crate::column::CrackerColumn;
use crate::config::CrackerConfig;
use crate::crack::BoundaryKey;
use crate::index::CrackerIndex;
use crate::sharded::ConcurrentColumn;
use crate::updates::MergeJournal;
use std::collections::BTreeSet;
use storage::codec::{self, Reader};
use storage::{StorageError, StorageResult};

/// One crack boundary as persisted: the [`BoundaryKey`] flattened next to
/// its split position.
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
    /// Staged-but-unmerged inserts, in value order (ties in staging order).
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
        put_boundaries_and_overlay(col, buf);
    }

    /// Read one column's state written by [`encode`](Self::encode).
    pub fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let values = r.ints()?;
        let oids = r.ints()?;
        let (boundaries, pending_inserts, pending_deletes) = read_boundaries_and_overlay(r)?;
        Ok(ColumnSnapshot {
            values,
            oids,
            boundaries,
            pending_inserts,
            pending_deletes,
        })
    }

    /// Rebuild a column from this snapshot, re-validating every invariant.
    /// The arrays move into the column; nothing is copied.
    ///
    /// The piece map is re-imposed boundary by boundary and then checked
    /// against the actual values ([`CrackerIndex::check_pieces`]); the
    /// overlay is re-staged through the public update API, deletes before
    /// inserts (see `restage`). Any inconsistency is an error — a
    /// recovered column is either exactly the captured one or refused.
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
        restage(&mut col, self.pending_inserts, self.pending_deletes)?;
        Ok(col)
    }

    /// Rebuild a column from this snapshot (its *origin*) and the
    /// [`ColumnDelta`] written since, trusting neither:
    ///
    /// 1. restore the origin's arrays and piece map as
    ///    [`restore`](Self::restore) does, without its overlay (the
    ///    delta's supersedes it);
    /// 2. replay the journaled merges through the ripple merge;
    /// 3. drop the origin boundaries the delta lacks (a heal discards
    ///    them all; no tuple moves);
    /// 4. crack at every recorded boundary the origin lacks;
    /// 5. check the column's length and every boundary's position
    ///    against the delta's records;
    /// 6. check the piece map and restage the delta's overlay.
    ///
    /// A piece's contents are fixed by the column's tuples and its
    /// boundaries, so step 5 holds exactly when the replay reproduced the
    /// checkpointed column piece by piece; the order inside a piece may
    /// differ, which no select observes. Any mismatch is an error.
    pub fn restore_with(
        mut self,
        delta: ColumnDelta,
        config: CrackerConfig,
    ) -> Result<CrackerColumn<i64>, String> {
        self.pending_inserts.clear();
        self.pending_deletes.clear();
        let mut col = self.restore(config)?;
        col.replay_journal(&delta.journal);
        if col.len() != delta.len {
            return Err(format!(
                "journal replay left {} tuples, the delta records {}",
                col.len(),
                delta.len
            ));
        }
        let keep: BTreeSet<BoundaryKey<i64>> =
            delta.boundaries.iter().map(BoundaryRecord::key).collect();
        let stale: Vec<BoundaryKey<i64>> = (col.index().boundaries())
            .map(|(key, _)| *key)
            .filter(|key| !keep.contains(key))
            .collect();
        for key in stale {
            col.index_mut().remove(&key);
        }
        for key in bisection_order(keep.into_iter().collect()) {
            col.crack_at(key);
        }
        for b in &delta.boundaries {
            let at = col.index().position(b.key());
            if at != Some(b.pos) {
                return Err(format!(
                    "boundary {:?} lands at {at:?} after replay, the delta records {}",
                    b.key(),
                    b.pos
                ));
            }
        }
        col.index().check_pieces(col.values())?;
        restage(&mut col, delta.pending_inserts, delta.pending_deletes)?;
        Ok(col)
    }

    /// Cheap dirty-tracking fingerprint of a column's persistent state:
    /// two snapshots of the same column are byte-identical whenever its
    /// fingerprints match, so an unchanged fingerprint lets the
    /// checkpoint layer skip re-encoding a warm column. Layout changes
    /// are counter-based (cracks and merges are monotone; `f` is
    /// [`CrackStats::fusions`](crate::stats::CrackStats::fusions), which
    /// nothing increments, kept so the format stays byte-identical); the
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

/// The second half of a cracked column's checkpoint, decoded: what
/// changed since its origin [`ColumnSnapshot`]. Content changes are the
/// merges since the origin ([`MergeJournal`]); structure changes are
/// captured by the current boundaries, which a ripple merge shifts all at
/// once. Both are small next to the column: a delta holds no value or
/// OID of a tuple that was not inserted or deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnDelta {
    /// Tuples in the cracked area after the journaled merges.
    pub len: usize,
    /// The merges since the origin, in order.
    pub journal: MergeJournal<i64>,
    /// Crack boundaries in ascending key order.
    pub boundaries: Vec<BoundaryRecord>,
    /// Staged-but-unmerged inserts, in value order (ties in staging order).
    pub pending_inserts: Vec<(u32, i64)>,
    /// OIDs staged for deletion, sorted.
    pub pending_deletes: Vec<u32>,
}

impl ColumnDelta {
    /// Append the delta of `col` to a payload body: its length, its merge
    /// journal (insert OIDs, insert values, deletes, and per-merge end
    /// offsets into inserts and deletes) — empty unless `journal` is set
    /// and the column keeps one — then its boundaries and overlay exactly
    /// as [`ColumnSnapshot::encode`] writes them.
    pub fn encode(col: &CrackerColumn<i64>, journal: bool, buf: &mut Vec<u8>) {
        codec::put_u64(buf, col.len() as u64);
        let empty = MergeJournal::default();
        let j = col.journal().filter(|_| journal).unwrap_or(&empty);
        codec::put_ints(buf, j.insert_oids());
        codec::put_ints(buf, j.insert_values());
        codec::put_ints(buf, j.deletes());
        codec::put_int_iter(buf, j.ends().iter().map(|&(i, _)| i as i64));
        codec::put_int_iter(buf, j.ends().iter().map(|&(_, d)| d as i64));
        put_boundaries_and_overlay(col, buf);
    }

    /// Read one column's delta written by [`encode`](Self::encode).
    pub fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let len = usize::try_from(r.u64()?)
            .map_err(|_| StorageError::PersistFormat("delta length overflows".to_string()))?;
        let (oids, values, deletes) = (r.ints()?, r.ints()?, r.ints()?);
        let (insert_ends, delete_ends) = (r.ints::<usize>()?, r.ints::<usize>()?);
        if insert_ends.len() != delete_ends.len() {
            return Err(StorageError::PersistFormat(
                "journal end arrays differ in length".to_string(),
            ));
        }
        let ends = insert_ends.into_iter().zip(delete_ends).collect();
        let journal = MergeJournal::from_parts(oids, values, deletes, ends)
            .map_err(StorageError::PersistFormat)?;
        let (boundaries, pending_inserts, pending_deletes) = read_boundaries_and_overlay(r)?;
        Ok(ColumnDelta {
            len,
            journal,
            boundaries,
            pending_inserts,
            pending_deletes,
        })
    }
}

/// Ascending `keys` reordered middle first, then the middle of each half,
/// and so on. Cracking in this order splits every piece near its middle,
/// so each tuple is touched once per halving, `O(n log k)` for `k` new
/// boundaries; ascending order rescans a piece's remainder at every key.
fn bisection_order<K: Copy>(keys: Vec<K>) -> Vec<K> {
    let mut out = Vec::with_capacity(keys.len());
    let mut halves = vec![&keys[..]];
    while let Some(half) = halves.pop() {
        if let Some(&mid) = half.get(half.len() / 2) {
            out.push(mid);
            halves.push(&half[..half.len() / 2]);
            halves.push(&half[half.len() / 2 + 1..]);
        }
    }
    out
}

/// Append the boundaries of `col` as three parallel arrays (value, `lte`,
/// position), its staged inserts as two (OID, value), and the sorted
/// pending deletes that hide a cracked tuple ([`sorted_deletes`]).
fn put_boundaries_and_overlay(col: &CrackerColumn<i64>, buf: &mut Vec<u8>) {
    let bounds = col.index().boundaries();
    codec::put_int_iter(buf, bounds.clone().map(|(k, _)| k.value));
    codec::put_int_iter(buf, bounds.clone().map(|(k, _)| i64::from(k.lte)));
    codec::put_int_iter(buf, bounds.map(|(_, &pos)| pos as i64));
    let inserts = col.pending.staged_inserts();
    codec::put_int_iter(buf, inserts.clone().map(|(oid, _)| i64::from(oid)));
    codec::put_int_iter(buf, inserts.map(|(_, v)| v));
    codec::put_ints(buf, &sorted_deletes(col));
}

/// Boundaries, staged inserts and pending deletes, decoded.
type BoundariesAndOverlay = (Vec<BoundaryRecord>, Vec<(u32, i64)>, Vec<u32>);

/// Read what [`put_boundaries_and_overlay`] wrote.
fn read_boundaries_and_overlay(r: &mut Reader<'_>) -> StorageResult<BoundariesAndOverlay> {
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
    let inserts = insert_oids.into_iter().zip(insert_values).collect();
    Ok((boundaries, inserts, pending_deletes))
}

/// Re-stage a restored column's overlay through the public update API.
/// A pending delete and a staged insert share an OID only when the insert
/// was staged after the delete (a delete cancels an earlier insert of its
/// OID), so the deletes are staged first, when no insert is there yet for
/// them to cancel. A snapshot holds only the marks that hide a cracked
/// tuple, each once ([`sorted_deletes`]), so the marks re-staged must hide
/// exactly as many cracked tuples as the snapshot lists: one pass over the
/// cracked OIDs checks that.
fn restage(
    col: &mut CrackerColumn<i64>,
    inserts: Vec<(u32, i64)>,
    deletes: Vec<u32>,
) -> Result<(), String> {
    for &oid in &deletes {
        col.pending.stage_delete(oid);
    }
    let hidden = (col.oids().iter())
        .filter(|&&oid| col.pending.is_deleted(oid))
        .count();
    if hidden != deletes.len() {
        return Err(format!(
            "{} pending deletes hide {hidden} cracked tuples — snapshot corrupt",
            deletes.len()
        ));
    }
    for (oid, v) in inserts {
        col.insert(oid, v);
    }
    Ok(())
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Content hash of a column's pending-update overlay: the staged inserts
/// in value order plus the pending-delete set in sorted order, each
/// section prefixed by its length so no two distinct overlays share an
/// encoding. Two columns hash equal exactly when their encoded
/// `pending_inserts`/`pending_deletes` would be equal — the property the
/// fingerprint needs and the raw overlay *length* cannot provide.
fn overlay_hash(col: &CrackerColumn<i64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let inserts = col.pending.staged_inserts();
    fnv1a(&mut h, &(inserts.len() as u64).to_le_bytes());
    for (oid, v) in inserts {
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

/// The pending deletes of `col` that hide a cracked tuple, in ascending
/// order (a canonical encoding of a set kept in no particular order).
/// A base-table delete marks every doomed OID in every shard
/// ([`ConcurrentColumn::stage_deletes`]), a staged insert's OID among
/// them; a mark on an OID no cracked tuple holds hides nothing, the next
/// merge drops it, and so does a snapshot. One pass over the cracked
/// OIDs, taken only when a delete is pending.
fn sorted_deletes(col: &CrackerColumn<i64>) -> Vec<u32> {
    let marks = col.pending.deleted_set();
    if marks.is_empty() {
        return Vec::new();
    }
    let mut deletes: Vec<u32> = (col.oids().iter().copied())
        .filter(|&oid| marks.contains(oid))
        .collect();
    deletes.sort_unstable();
    deletes
}

/// The persistent state of a [`ConcurrentColumn`], decoded: its split
/// points plus one snapshot per shard in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrentSnapshot {
    /// Ascending split values (empty for one shard).
    pub splits: Vec<i64>,
    /// Per-shard snapshots.
    pub shards: Vec<ColumnSnapshot>,
}

impl ConcurrentSnapshot {
    /// Append the persistent state of `col` to a payload body: the shard
    /// tag, the split points and the shard count, then each shard's
    /// [`ColumnSnapshot::encode`], taken under that shard's read latch one
    /// shard at a time in ascending order.
    pub fn encode(col: &ConcurrentColumn<i64>, buf: &mut Vec<u8>) {
        encode_shards(col, buf, ColumnSnapshot::encode);
    }

    /// Decode a payload body written by [`encode`](Self::encode); the
    /// whole body must be consumed.
    pub fn decode(body: &[u8]) -> StorageResult<Self> {
        let (splits, shards) = decode_shards(body, ColumnSnapshot::decode)?;
        Ok(ConcurrentSnapshot { splits, shards })
    }

    /// Rebuild a concurrent column, re-validating per-shard piece maps
    /// and the sharded range invariant.
    pub fn restore(self, config: CrackerConfig) -> Result<ConcurrentColumn<i64>, String> {
        let columns = (self.shards.into_iter().enumerate())
            .map(|(i, snap)| snap.restore(config).map_err(|e| format!("shard {i}: {e}")))
            .collect::<Result<_, _>>()?;
        ConcurrentColumn::from_parts(self.splits, columns)
    }

    /// Rebuild a concurrent column from this snapshot (the origin) and the
    /// delta written since, shard by shard
    /// ([`ColumnSnapshot::restore_with`]). The delta must describe the
    /// same shards as the origin.
    pub fn restore_with(
        self,
        delta: ConcurrentDelta,
        config: CrackerConfig,
    ) -> Result<ConcurrentColumn<i64>, String> {
        if (&delta.splits, delta.shards.len()) != (&self.splits, self.shards.len()) {
            return Err("the delta's shards differ from its origin's".to_string());
        }
        let columns = (self.shards.into_iter().zip(delta.shards).enumerate())
            .map(|(i, (snap, delta))| {
                snap.restore_with(delta, config)
                    .map_err(|e| format!("shard {i}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        ConcurrentColumn::from_parts(self.splits, columns)
    }

    /// Dirty-tracking fingerprint: the shard tag plus every shard's
    /// [`ColumnSnapshot::fingerprint`], in ascending shard order.
    pub fn fingerprint(col: &ConcurrentColumn<i64>) -> String {
        let tag = if col.shard_count() == 1 {
            "single"
        } else {
            "sharded"
        };
        let shards = col.read_shards(ColumnSnapshot::fingerprint);
        format!("{tag}:{}", shards.join("/"))
    }
}

/// The delta half of a [`ConcurrentColumn`]'s checkpoint, decoded: the
/// split points (which must match the origin's), then one
/// [`ColumnDelta`] per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrentDelta {
    /// Ascending split values (empty for one shard).
    pub splits: Vec<i64>,
    /// Per-shard deltas.
    pub shards: Vec<ColumnDelta>,
}

impl ConcurrentDelta {
    /// Append the delta of `col` to a payload body: the same header as
    /// [`ConcurrentSnapshot::encode`], then each shard's
    /// [`ColumnDelta::encode`]. `journal` as there.
    pub fn encode(col: &ConcurrentColumn<i64>, journal: bool, buf: &mut Vec<u8>) {
        encode_shards(col, buf, |c, buf| ColumnDelta::encode(c, journal, buf));
    }

    /// Decode a payload body written by [`encode`](Self::encode); the
    /// whole body must be consumed.
    pub fn decode(body: &[u8]) -> StorageResult<Self> {
        let (splits, shards) = decode_shards(body, ColumnDelta::decode)?;
        Ok(ConcurrentDelta { splits, shards })
    }
}

/// Append the shard tag (0 one shard, 1 several), the split points and
/// the shard count, then `shard` of each shard's column, taken under that
/// shard's read latch one shard at a time in ascending order.
fn encode_shards(
    col: &ConcurrentColumn<i64>,
    buf: &mut Vec<u8>,
    mut shard: impl FnMut(&CrackerColumn<i64>, &mut Vec<u8>),
) {
    codec::put_u8(buf, u8::from(col.shard_count() > 1));
    codec::put_ints(buf, col.splits());
    codec::put_u64(buf, col.shard_count() as u64);
    col.read_shards(|c| shard(c, buf));
}

/// Read what [`encode_shards`] wrote: the split points and each shard's
/// `shard`. Tag 1 may describe any shard count (a several-shard request
/// can realize one shard); tag 0 must describe one shard with no splits.
/// The whole body must be consumed.
fn decode_shards<S>(
    body: &[u8],
    mut shard: impl FnMut(&mut Reader<'_>) -> StorageResult<S>,
) -> StorageResult<(Vec<i64>, Vec<S>)> {
    let format_err = |msg: String| Err(StorageError::PersistFormat(msg));
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    if tag > 1 {
        return format_err(format!("unknown concurrency tag {tag}"));
    }
    let splits = r.ints()?;
    let n = r.count()?;
    if tag == 0 && (n, splits.len()) != (1, 0) {
        return format_err("a one-shard body must hold one shard and no splits".to_string());
    }
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(shard(&mut r)?);
    }
    r.finish()?;
    Ok((splits, shards))
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
        for mode in [ConcurrencyMode::default(), ConcurrencyMode { shards: 4 }] {
            let col = ConcurrentColumn::build(vals.clone(), CrackerConfig::default(), mode);
            col.count(RangePred::between(500, 1_500));
            col.insert(90_000, 1_000);
            col.delete(17);
            let snap = capture_concurrent(&col);
            let restored = snap.clone().restore(CrackerConfig::default()).unwrap();
            assert_eq!(restored.splits(), col.splits(), "mode {mode:?}");
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
            ConcurrencyMode { shards: 4 },
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

        // Tag 0 (one shard) over a several-shard body is refused.
        let mut body = encode_concurrent(&col);
        body[0] = 0;
        assert!(ConcurrentSnapshot::decode(&body).is_err());
    }

    #[test]
    fn a_flipped_value_or_oid_passes_check_pieces_but_not_the_checksum() {
        // One crack at 500: the first piece holds values below 500, so
        // flipping the low bit of its first value keeps it there, and
        // nothing checks OIDs against values at all.
        let col = ConcurrentColumn::build(
            (0..1_000).rev().collect(),
            CrackerConfig::default(),
            ConcurrencyMode::default(),
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

    /// What a delta checkpoint of `col` decodes to.
    fn capture_delta(col: &CrackerColumn<i64>) -> ColumnDelta {
        let mut buf = Vec::new();
        ColumnDelta::encode(col, true, &mut buf);
        let mut r = Reader::new(&buf);
        let delta = ColumnDelta::decode(&mut r).unwrap();
        r.finish().unwrap();
        delta
    }

    /// Boundaries with positions, and each piece's sorted `(value, oid)`
    /// multiset.
    type Layout = (Vec<(BoundaryKey<i64>, usize)>, Vec<Vec<(i64, u32)>>);

    fn layout(c: &CrackerColumn<i64>) -> Layout {
        let keys = c.index().boundaries().map(|(k, &pos)| (*k, pos)).collect();
        let pieces = (c.index().pieces().iter())
            .map(|p| {
                let vals = c.values()[p.start..p.end].iter().copied();
                let mut m: Vec<_> = vals.zip(c.oids()[p.start..p.end].iter().copied()).collect();
                m.sort_unstable();
                m
            })
            .collect();
        (keys, pieces)
    }

    /// A cracked column journaling from its origin, then changed by two
    /// merges (one reusing a deleted OID), a contained crack panic that
    /// heals it cold (losing every origin boundary), and new cracks.
    fn origin_and_changed() -> (ColumnSnapshot, CrackerColumn<i64>) {
        let mut col = warmed_column();
        col.set_journaling(true);
        let origin = capture(&col);
        col.merge_pending();
        col.select(RangePred::between(300, 350));
        col.insert(2_000, 320);
        col.delete(7);
        col.delete(1_000);
        col.merge_pending();
        col.insert(7, 5);
        col.merge_pending();
        col.arm_panic_on_crack(0);
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            col.select(RangePred::lt(20))
        }));
        assert!(torn.is_err());
        assert!(col.heal(), "the torn piece map is rebuilt cold");
        col.select(RangePred::lt(20));
        col.select(RangePred::between(300, 350));
        col.insert(2_001, 60);
        (origin, col)
    }

    #[test]
    fn origin_plus_delta_restores_the_live_layout_and_overlay() {
        let (origin, col) = origin_and_changed();
        assert_eq!(col.journal().map(|j| j.ends().len()), Some(3));
        let delta = capture_delta(&col);
        let kept: BTreeSet<_> = delta.boundaries.iter().map(BoundaryRecord::key).collect();
        assert!(
            origin.boundaries.iter().any(|b| !kept.contains(&b.key())),
            "the replay must drop an origin boundary the delta lacks"
        );
        let restored = origin.restore_with(delta, *col.config()).unwrap();
        assert_eq!(layout(&restored), layout(&col));
        assert!(restored
            .pending
            .staged_inserts()
            .eq(col.pending.staged_inserts()));
        restored.validate().unwrap();
    }

    #[test]
    fn a_delta_without_its_journal_or_with_a_moved_boundary_is_refused() {
        let (origin, col) = origin_and_changed();
        let mut buf = Vec::new();
        ColumnDelta::encode(&col, false, &mut buf);
        let empty = ColumnDelta::decode(&mut Reader::new(&buf)).unwrap();
        let err = origin
            .clone()
            .restore_with(empty, *col.config())
            .unwrap_err();
        assert!(err.contains("journal replay left"), "{err}");

        let mut delta = capture_delta(&col);
        delta.boundaries[1].pos += 1;
        let err = origin.restore_with(delta, *col.config()).unwrap_err();
        assert!(err.contains("after replay"), "{err}");
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
            let mode = ConcurrencyMode { shards: shards + 1 };
            let col = ConcurrentColumn::build(
                (0..40).map(|i| (i * 7) % 40).collect(),
                CrackerConfig::default(),
                mode,
            );
            col.count(RangePred::between(10, 20));
            col.insert(90, 15);
            col.delete(3);
            col.set_journaling(true);
            let body = encode_concurrent(&col);
            let mut inputs = vec![junk.clone()];
            inputs.extend(cuts_and_flips(&body));
            for bytes in inputs {
                match ConcurrentSnapshot::decode(&bytes) {
                    Ok(snap) => {
                        let _ = snap.restore(CrackerConfig::default());
                    }
                    Err(e) => proptest::prop_assert!(matches!(e, StorageError::PersistFormat(_))),
                }
            }
            // The same for the delta written after a merge, a crack and a
            // fresh overlay, replayed onto the intact origin.
            let origin = ConcurrentSnapshot::decode(&body).unwrap();
            col.merge_pending();
            col.count(RangePred::between(25, 30));
            col.insert(91, 35);
            col.delete(5);
            let mut delta = Vec::new();
            ConcurrentDelta::encode(&col, true, &mut delta);
            let intact = ConcurrentDelta::decode(&delta).unwrap();
            proptest::prop_assert!(origin.clone().restore_with(intact, CrackerConfig::default()).is_ok());
            let mut inputs = vec![junk];
            inputs.extend(cuts_and_flips(&delta));
            for bytes in inputs {
                match ConcurrentDelta::decode(&bytes) {
                    Ok(delta) => {
                        let _ = origin.clone().restore_with(delta, CrackerConfig::default());
                    }
                    Err(e) => proptest::prop_assert!(matches!(e, StorageError::PersistFormat(_))),
                }
            }
        }
    }

    /// Every truncation of `body` and every single-bit flip of it.
    fn cuts_and_flips(body: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..body.len()).map(|cut| body[..cut].to_vec()).collect();
        for bit in 0..body.len() * 8 {
            let mut flipped = body.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            out.push(flipped);
        }
        out
    }

    #[test]
    fn check_piece_map_reexport_agrees_with_validate() {
        let mut col = CrackerColumn::new((0..200).rev().collect::<Vec<i64>>());
        col.select(RangePred::between(40, 120));
        check_piece_map(col.index(), col.values()).unwrap();
        col.index().validate(col.values()).unwrap();
    }
}
