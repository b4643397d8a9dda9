//! The buffer pool: a bounded page cache over a [`PageStore`].
//!
//! The paper's Figure 1 observes that for large tables response time
//! "becomes linear in the number of disk IOs" — which is to say, the
//! unit that matters below the tuple counters is *page traffic through
//! the buffer pool*. [`BufferPool`] supplies that layer: a fixed number
//! of frames over a simulated disk, CLOCK (second-chance) eviction with
//! write-back of dirty frames, and hit/miss/eviction counters. The
//! paged experiments run scans and cracked accesses through it to show
//! the cracked store's shrinking page footprint.
//!
//! The pool is a single-owner (`&mut self`) structure: every access is
//! one call, frames are only reclaimed between calls, so no pinning
//! protocol is needed. That matches its role here — an instrumented
//! substrate for the experiments, not a concurrent server component
//! (the concurrency story lives in `cracker_core::concurrent`).

use crate::error::{StorageError, StorageResult};
use crate::page::{IoStats, PageBuf, PageId, PageStore};
use std::collections::HashMap;

/// Buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that had to read the page from the store.
    pub misses: u64,
    /// Frames reclaimed to make room.
    pub evictions: u64,
    /// Dirty frames written back on eviction or flush.
    pub writebacks: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]` (1.0 for an untouched pool).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Frame {
    id: PageId,
    buf: PageBuf,
    dirty: bool,
    /// CLOCK reference bit: set on access, cleared as the hand sweeps.
    referenced: bool,
}

/// A bounded cache of pages with CLOCK eviction.
#[derive(Debug)]
pub struct BufferPool<S: PageStore> {
    store: S,
    frames: Vec<Frame>,
    /// Resident map: page id → frame slot.
    map: HashMap<PageId, usize>,
    capacity: usize,
    clock: usize,
    stats: PoolStats,
}

impl<S: PageStore> BufferPool<S> {
    /// A pool of `capacity` frames over `store`.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "a pool needs at least one frame");
        BufferPool {
            store,
            frames: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            capacity,
            clock: 0,
            stats: PoolStats::default(),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pool counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Disk counters of the underlying store.
    pub fn io_stats(&self) -> IoStats {
        self.store.io_stats()
    }

    /// Reset the pool counters (the disk's counters are its own).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// The underlying store (e.g. to allocate pages).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Allocate a fresh page on the store.
    pub fn allocate(&mut self) -> PageId {
        self.store.allocate()
    }

    /// Page size of the store.
    pub fn page_size(&self) -> usize {
        self.store.page_size()
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// True when `id` is resident (no side effects, no counter changes).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    /// Read the value at `slot` of page `id`.
    pub fn read_value(&mut self, id: PageId, slot: usize) -> StorageResult<i64> {
        let f = self.frame_for(id)?;
        self.frames[f].buf.get(slot)
    }

    /// Write the value at `slot` of page `id`, marking the frame dirty.
    pub fn write_value(&mut self, id: PageId, slot: usize, v: i64) -> StorageResult<()> {
        let f = self.frame_for(id)?;
        self.frames[f].buf.set(slot, v)?;
        self.frames[f].dirty = true;
        Ok(())
    }

    /// Append a value to page `id`; returns `false` when the page is
    /// full (the caller allocates the next page).
    pub fn append_value(&mut self, id: PageId, v: i64) -> StorageResult<bool> {
        let f = self.frame_for(id)?;
        let fit = self.frames[f].buf.push(v);
        if fit {
            self.frames[f].dirty = true;
        }
        Ok(fit)
    }

    /// Number of values on page `id`.
    pub fn page_len(&mut self, id: PageId) -> StorageResult<usize> {
        let f = self.frame_for(id)?;
        Ok(self.frames[f].buf.len())
    }

    /// Run a closure over the (read-only) page image — the one-page scan
    /// primitive.
    pub fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&PageBuf) -> R) -> StorageResult<R> {
        let slot = self.frame_for(id)?;
        Ok(f(&self.frames[slot].buf))
    }

    /// Run a closure over the mutable page image, marking it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut PageBuf) -> R,
    ) -> StorageResult<R> {
        let slot = self.frame_for(id)?;
        self.frames[slot].dirty = true;
        Ok(f(&mut self.frames[slot].buf))
    }

    /// Write every dirty frame back to the store.
    pub fn flush(&mut self) -> StorageResult<()> {
        for f in &mut self.frames {
            if f.dirty {
                self.store.write(f.id, &f.buf)?;
                f.dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }

    /// Locate (or load) the frame holding `id`.
    fn frame_for(&mut self, id: PageId) -> StorageResult<usize> {
        if let Some(&slot) = self.map.get(&id) {
            self.stats.hits += 1;
            self.frames[slot].referenced = true;
            return Ok(slot);
        }
        self.stats.misses += 1;
        let slot = if self.frames.len() < self.capacity {
            // Cold pool: take a fresh frame.
            self.frames.push(Frame {
                id,
                buf: PageBuf::new(self.store.page_size()),
                dirty: false,
                referenced: true,
            });
            self.frames.len() - 1
        } else {
            self.evict()?
        };
        self.store.read(id, &mut self.frames[slot].buf)?;
        self.frames[slot].id = id;
        self.frames[slot].dirty = false;
        self.frames[slot].referenced = true;
        self.map.insert(id, slot);
        Ok(slot)
    }

    /// CLOCK sweep: clear reference bits until an unreferenced frame is
    /// found; write it back if dirty and hand its slot to the caller.
    fn evict(&mut self) -> StorageResult<usize> {
        // Two full sweeps suffice: the first clears every reference bit,
        // the second must find a victim.
        for _ in 0..self.frames.len() * 2 {
            let slot = self.clock;
            self.clock = (self.clock + 1) % self.frames.len();
            if self.frames[slot].referenced {
                self.frames[slot].referenced = false;
                continue;
            }
            let victim = &mut self.frames[slot];
            if victim.dirty {
                self.store.write(victim.id, &victim.buf)?;
                victim.dirty = false;
                self.stats.writebacks += 1;
            }
            self.map.remove(&victim.id);
            self.stats.evictions += 1;
            return Ok(slot);
        }
        Err(StorageError::PoolExhausted {
            capacity: self.capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::MemDisk;

    /// A pool of `frames` tiny (7-value) pages with `pages` allocated.
    fn pool(frames: usize, pages: usize) -> (BufferPool<MemDisk>, Vec<PageId>) {
        let mut p = BufferPool::new(MemDisk::with_page_size(64), frames);
        let ids: Vec<PageId> = (0..pages).map(|_| p.allocate()).collect();
        (p, ids)
    }

    #[test]
    fn values_roundtrip_through_the_pool() {
        let (mut p, ids) = pool(2, 1);
        assert!(p.append_value(ids[0], 10).unwrap());
        assert!(p.append_value(ids[0], 20).unwrap());
        assert_eq!(p.read_value(ids[0], 1).unwrap(), 20);
        p.write_value(ids[0], 0, -7).unwrap();
        assert_eq!(p.read_value(ids[0], 0).unwrap(), -7);
        assert_eq!(p.page_len(ids[0]).unwrap(), 2);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (mut p, ids) = pool(2, 2);
        p.page_len(ids[0]).unwrap(); // miss
        p.page_len(ids[0]).unwrap(); // hit
        p.page_len(ids[1]).unwrap(); // miss
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 2);
        assert!((p.stats().hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_writes_back_dirty_frames() {
        let (mut p, ids) = pool(1, 3);
        assert!(p.append_value(ids[0], 42).unwrap());
        // Touching other pages forces page 0 out of the single frame.
        p.page_len(ids[1]).unwrap();
        p.page_len(ids[2]).unwrap();
        assert!(p.stats().evictions >= 2);
        assert!(p.stats().writebacks >= 1, "dirty page 0 was written back");
        // The value survives the round trip through the store.
        assert_eq!(p.read_value(ids[0], 0).unwrap(), 42);
        assert_eq!(p.resident(), 1);
    }

    #[test]
    fn clean_evictions_do_not_write() {
        let (mut p, ids) = pool(1, 3);
        p.page_len(ids[0]).unwrap();
        p.page_len(ids[1]).unwrap();
        p.page_len(ids[2]).unwrap();
        assert_eq!(p.stats().writebacks, 0, "read-only traffic writes nothing");
        assert_eq!(p.io_stats().writes, 0);
    }

    #[test]
    fn clock_gives_a_second_chance() {
        let (mut p, ids) = pool(2, 3);
        p.page_len(ids[0]).unwrap();
        p.page_len(ids[1]).unwrap();
        // Fault page 2: the sweep clears both reference bits and evicts
        // the first unreferenced frame (page 0).
        p.page_len(ids[2]).unwrap();
        assert!(!p.is_resident(ids[0]));
        assert!(p.is_resident(ids[1]));
        // Re-reference page 2; its bit protects it from the next fault,
        // which must victimize the un-referenced page 1 instead.
        p.page_len(ids[2]).unwrap();
        p.page_len(ids[0]).unwrap();
        assert!(
            p.is_resident(ids[2]),
            "referenced frame got its second chance"
        );
        assert!(!p.is_resident(ids[1]), "unreferenced frame was the victim");
    }

    #[test]
    fn flush_persists_everything_dirty() {
        let (mut p, ids) = pool(4, 2);
        p.append_value(ids[0], 1).unwrap();
        p.append_value(ids[1], 2).unwrap();
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 2);
        // A fresh pool over the same store sees the data.
        let store = std::mem::replace(p.store_mut(), MemDisk::with_page_size(64));
        let mut p2 = BufferPool::new(store, 2);
        assert_eq!(p2.read_value(ids[0], 0).unwrap(), 1);
        assert_eq!(p2.read_value(ids[1], 0).unwrap(), 2);
    }

    #[test]
    fn flush_is_idempotent() {
        let (mut p, ids) = pool(2, 1);
        p.append_value(ids[0], 5).unwrap();
        p.flush().unwrap();
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 1, "second flush writes nothing");
    }

    #[test]
    fn larger_pools_trade_memory_for_io() {
        // Scan 8 pages twice with pool sizes 2 and 8: the large pool
        // serves the second sweep from memory.
        let run = |frames: usize| {
            let (mut p, ids) = pool(frames, 8);
            for _ in 0..2 {
                for &id in &ids {
                    p.page_len(id).unwrap();
                }
            }
            (p.stats().hits, p.io_stats().reads)
        };
        let (hits_small, reads_small) = run(2);
        let (hits_big, reads_big) = run(8);
        assert_eq!(hits_small, 0, "2 frames thrash under an 8-page loop");
        assert_eq!(hits_big, 8, "8 frames cache the whole working set");
        assert!(reads_big < reads_small);
    }

    #[test]
    fn unknown_page_and_zero_capacity() {
        let (mut p, _) = pool(2, 0);
        assert!(matches!(
            p.read_value(PageId(5), 0),
            Err(StorageError::UnknownPage(5))
        ));
        let r = std::panic::catch_unwind(|| BufferPool::new(MemDisk::with_page_size(64), 0));
        assert!(r.is_err(), "zero-frame pools are rejected");
    }

    #[test]
    fn with_page_closures() {
        let (mut p, ids) = pool(2, 1);
        p.with_page_mut(ids[0], |page| {
            page.push(7);
            page.push(8);
        })
        .unwrap();
        let sum: i64 = p
            .with_page(ids[0], |page| page.values().iter().sum())
            .unwrap();
        assert_eq!(sum, 15);
    }
}
