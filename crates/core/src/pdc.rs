//! The primary disk cache (PDC): the small DRAM page cache that fronts
//! the flash secondary cache (Figure 2). Managed by the OS as a
//! write-back LRU over 2KB disk pages.

use crate::fxhash::FxHashMap;

/// Result of a PDC insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdcEviction {
    /// The disk page pushed out.
    pub page: u64,
    /// Whether it carried unwritten data (must be written to the next
    /// level — the flash write cache).
    pub dirty: bool,
}

const NIL: u32 = u32::MAX;

/// One resident page: its recency links and its dirty bit, so a hit
/// costs one hashed lookup (page → node) and touches one node.
#[derive(Debug, Clone, Copy)]
struct Node {
    page: u64,
    /// Towards the most recently used end.
    prev: u32,
    /// Towards the least recently used end.
    next: u32,
    dirty: bool,
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
    /// Doubly-linked recency list over vector slots. Pages only leave
    /// by eviction, whose slot the incoming page takes over, so there
    /// is no free list.
    nodes: Vec<Node>,
    /// page → slot in `nodes`.
    map: FxHashMap<u64, u32>,
    head: u32, // most recent
    tail: u32, // least recent
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
            nodes: Vec::new(),
            map: FxHashMap::default(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Current resident pages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push_front(&mut self, idx: u32) {
        let head = self.head;
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = head;
        if head != NIL {
            self.nodes[head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Looks `page` up (the one hashed lookup), ORs `dirty` into its
    /// node and makes it most recent; `false` when it is not resident.
    #[inline]
    fn touch(&mut self, page: u64, dirty: bool) -> bool {
        let Some(&idx) = self.map.get(&page) else {
            return false;
        };
        let node = &mut self.nodes[idx as usize];
        node.dirty |= dirty;
        let (prev, next) = (node.prev, node.next);
        // `prev == NIL` is the head: already most recent, nothing to relink.
        if prev != NIL {
            self.nodes[prev as usize].next = next;
            if next != NIL {
                self.nodes[next as usize].prev = prev;
            } else {
                self.tail = prev;
            }
            self.push_front(idx);
        }
        true
    }

    /// Touches `page`; returns `true` on a hit (recency updated).
    pub fn access(&mut self, page: u64) -> bool {
        self.touch(page, false)
    }

    /// Marks a resident page dirty; returns whether it was resident.
    pub fn mark_dirty(&mut self, page: u64) -> bool {
        self.touch(page, true)
    }

    /// Inserts `page` (dirty or clean), evicting the LRU page if at
    /// capacity. Inserting a resident page updates its dirty bit
    /// (OR-wise) and recency instead.
    pub fn insert(&mut self, page: u64, dirty: bool) -> Option<PdcEviction> {
        if self.touch(page, dirty) {
            return None;
        }
        let node = Node {
            page,
            prev: NIL,
            next: NIL,
            dirty,
        };
        let (idx, evicted) = if self.nodes.len() >= self.capacity_pages {
            // The victim's slot becomes the new page's.
            let idx = self.tail;
            let victim = std::mem::replace(&mut self.nodes[idx as usize], node);
            self.map.remove(&victim.page);
            self.tail = victim.prev;
            if victim.prev != NIL {
                self.nodes[victim.prev as usize].next = NIL;
            } else {
                self.head = NIL;
            }
            let evicted = PdcEviction {
                page: victim.page,
                dirty: victim.dirty,
            };
            (idx, Some(evicted))
        } else {
            assert!(self.nodes.len() < NIL as usize, "PDC slot index overflow");
            self.nodes.push(node);
            (self.nodes.len() as u32 - 1, None)
        };
        self.map.insert(page, idx);
        self.push_front(idx);
        evicted
    }

    /// Drains every dirty page, marking them clean. Returns the pages in
    /// ascending order (stable output keeps whole-simulation runs
    /// deterministic) — the periodic write-back of §5.1.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for node in &mut self.nodes {
            if std::mem::take(&mut node.dirty) {
                out.push(node.page);
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
