//! O(1) least-recently-used tracker over a dense key universe.
//!
//! [`DenseLru`] handles a dense `u32` key universe known up front (one
//! key per flash block) by indexing the links directly with the key, so
//! the replay hot path does no hash lookup. (The primary disk cache's
//! sparse page LRU lives inside [`crate::pdc::PrimaryDiskCache`], whose
//! nodes also carry the dirty bit.)

const DNIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct DenseNode {
    prev: u32,
    next: u32,
    present: bool,
}

/// LRU order tracker over dense `u32` keys `0..capacity`.
///
/// The key doubles as the link-array index, so every operation is a
/// couple of direct loads/stores with no hashing. Every key must be
/// below the capacity the tracker was built with; a larger key panics.
#[derive(Debug)]
pub(crate) struct DenseLru {
    nodes: Vec<DenseNode>,
    head: u32, // most recent
    tail: u32, // least recent
    len: usize,
}

impl DenseLru {
    /// Creates a tracker covering keys `0..capacity`.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        DenseLru {
            nodes: vec![
                DenseNode {
                    prev: DNIL,
                    next: DNIL,
                    present: false,
                };
                capacity
            ],
            head: DNIL,
            tail: DNIL,
            len: 0,
        }
    }

    /// Number of tracked keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` if `key` is tracked.
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.nodes[key as usize].present
    }

    fn unlink(&mut self, key: u32) {
        let DenseNode { prev, next, .. } = self.nodes[key as usize];
        if prev != DNIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != DNIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, key: u32) {
        let head = self.head;
        {
            let node = &mut self.nodes[key as usize];
            node.prev = DNIL;
            node.next = head;
        }
        if head != DNIL {
            self.nodes[head as usize].prev = key;
        }
        self.head = key;
        if self.tail == DNIL {
            self.tail = key;
        }
    }

    /// Marks `key` as most recently used, inserting it if absent.
    /// Returns `true` if the key was already present.
    pub(crate) fn touch(&mut self, key: u32) -> bool {
        let was_present = self.nodes[key as usize].present;
        if was_present {
            if self.head == key {
                return true; // already MRU
            }
            self.unlink(key);
        } else {
            self.nodes[key as usize].present = true;
            self.len += 1;
        }
        self.push_front(key);
        was_present
    }

    /// Removes `key`; returns `true` if it was present.
    pub(crate) fn remove(&mut self, key: u32) -> bool {
        if !self.contains(key) {
            return false;
        }
        self.unlink(key);
        let node = &mut self.nodes[key as usize];
        node.present = false;
        node.prev = DNIL;
        node.next = DNIL;
        self.len -= 1;
        true
    }

    /// Iterates keys from least to most recently used.
    pub(crate) fn iter_lru_first(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            if cur == DNIL {
                return None;
            }
            let key = cur;
            cur = self.nodes[cur as usize].prev;
            Some(key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(t: &DenseLru) -> Option<u32> {
        t.iter_lru_first().next()
    }

    fn pop_lru(t: &mut DenseLru) -> Option<u32> {
        let key = lru(t)?;
        t.remove(key);
        Some(key)
    }

    #[test]
    fn empty_tracker() {
        let mut t = DenseLru::with_capacity(4);
        assert_eq!(t.len(), 0);
        assert_eq!(lru(&t), None);
        assert_eq!(pop_lru(&mut t), None);
        assert!(!t.remove(1));
    }

    #[test]
    fn touch_orders_by_recency() {
        let mut t = DenseLru::with_capacity(4);
        for k in [1, 2, 3] {
            assert!(!t.touch(k));
        }
        assert_eq!(lru(&t), Some(1));
        assert!(t.touch(1)); // now most recent
        assert_eq!(lru(&t), Some(2));
        assert_eq!(t.iter_lru_first().collect::<Vec<_>>(), vec![2, 3, 1]);
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut t = DenseLru::with_capacity(5);
        for k in 0..5 {
            t.touch(k);
        }
        t.touch(0);
        let order: Vec<u32> = std::iter::from_fn(|| pop_lru(&mut t)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 0]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn remove_middle_keeps_links_sound() {
        let mut t = DenseLru::with_capacity(4);
        for k in 0..4 {
            t.touch(k);
        }
        assert!(t.remove(2));
        assert_eq!(t.iter_lru_first().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert!(!t.contains(2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut t = DenseLru::with_capacity(37);
        for i in 0..10_000u32 {
            t.touch(i % 37);
            if i % 5 == 0 {
                t.remove((i + 3) % 37);
            }
        }
        // Presence flags and list agree on length.
        assert_eq!(t.iter_lru_first().count(), t.len());
        assert!(t.len() <= 37);
    }
}
