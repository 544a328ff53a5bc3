//! The primary disk cache (PDC): the small DRAM page cache that fronts
//! the flash secondary cache (Figure 2). Managed by the OS as a
//! write-back LRU over 2KB disk pages.

use crate::lru::LruTracker;
use nand_flash::fxhash::FxHashMap;

/// Result of a PDC insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdcEviction {
    /// The disk page pushed out.
    pub page: u64,
    /// Whether it carried unwritten data (must be written to the next
    /// level — the flash write cache).
    pub dirty: bool,
}

/// A fixed-capacity LRU page cache standing in for the DRAM-resident
/// primary disk cache.
///
/// # Examples
///
/// ```
/// use flashcache_core::pdc::PrimaryDiskCache;
///
/// let mut pdc = PrimaryDiskCache::new(2);
/// assert!(!pdc.access(1));          // cold miss
/// pdc.insert(1, false);
/// assert!(pdc.access(1));           // hit
/// pdc.insert(2, false);
/// let evicted = pdc.insert(3, true); // capacity reached
/// assert_eq!(evicted.unwrap().page, 1);
/// ```
#[derive(Debug)]
pub struct PrimaryDiskCache {
    capacity_pages: usize,
    lru: LruTracker,
    dirty: FxHashMap<u64, bool>,
}

impl PrimaryDiskCache {
    /// Creates a PDC holding `capacity_pages` 2KB pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "PDC capacity must be nonzero");
        PrimaryDiskCache {
            capacity_pages,
            lru: LruTracker::new(),
            dirty: FxHashMap::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Current resident pages.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Touches `page`; returns `true` on a hit (recency updated).
    pub fn access(&mut self, page: u64) -> bool {
        if self.dirty.contains_key(&page) {
            self.lru.touch(page);
            true
        } else {
            false
        }
    }

    /// Marks a resident page dirty; returns whether it was resident.
    pub fn mark_dirty(&mut self, page: u64) -> bool {
        if let Some(d) = self.dirty.get_mut(&page) {
            *d = true;
            self.lru.touch(page);
            true
        } else {
            false
        }
    }

    /// Inserts `page` (dirty or clean), evicting the LRU page if at
    /// capacity. Inserting a resident page updates its dirty bit
    /// (OR-wise) and recency instead.
    pub fn insert(&mut self, page: u64, dirty: bool) -> Option<PdcEviction> {
        if let Some(d) = self.dirty.get_mut(&page) {
            *d |= dirty;
            self.lru.touch(page);
            return None;
        }
        let evicted = if self.lru.len() >= self.capacity_pages {
            let victim = self.lru.pop_lru().expect("nonempty at capacity");
            let was_dirty = self.dirty.remove(&victim).unwrap_or(false);
            Some(PdcEviction {
                page: victim,
                dirty: was_dirty,
            })
        } else {
            None
        };
        self.lru.touch(page);
        self.dirty.insert(page, dirty);
        evicted
    }

    /// Drains every dirty page, marking them clean. Returns the pages in
    /// ascending order (stable output keeps whole-simulation runs
    /// deterministic) — the periodic write-back of §5.1.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for (&p, d) in self.dirty.iter_mut() {
            if *d {
                *d = false;
                out.push(p);
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut p = PrimaryDiskCache::new(4);
        assert!(!p.access(7));
        assert!(p.insert(7, false).is_none());
        assert!(p.access(7));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut p = PrimaryDiskCache::new(2);
        p.insert(1, false);
        p.insert(2, false);
        p.access(1); // 2 becomes LRU
        let ev = p.insert(3, false).unwrap();
        assert_eq!(
            ev,
            PdcEviction {
                page: 2,
                dirty: false
            }
        );
    }

    #[test]
    fn dirty_state_travels_with_eviction() {
        let mut p = PrimaryDiskCache::new(1);
        p.insert(5, true);
        let ev = p.insert(6, false).unwrap();
        assert!(ev.dirty && ev.page == 5);
    }

    #[test]
    fn reinsert_merges_dirty_bit() {
        let mut p = PrimaryDiskCache::new(2);
        p.insert(1, false);
        assert!(p.insert(1, true).is_none());
        let flushed = p.flush_dirty();
        assert_eq!(flushed, vec![1]);
        // Second flush is empty: pages are now clean.
        assert!(p.flush_dirty().is_empty());
    }

    #[test]
    fn mark_dirty_requires_residency() {
        let mut p = PrimaryDiskCache::new(2);
        assert!(!p.mark_dirty(9));
        p.insert(9, false);
        assert!(p.mark_dirty(9));
        assert_eq!(p.flush_dirty(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        PrimaryDiskCache::new(0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut p = PrimaryDiskCache::new(8);
        for i in 0..1000 {
            p.insert(i, i % 3 == 0);
            assert!(p.len() <= 8);
        }
    }
}
