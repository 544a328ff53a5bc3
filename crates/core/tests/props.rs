//! Property-based tests of the cache's supporting structures against
//! naive reference models.

use proptest::prelude::*;
use std::collections::HashMap;

use flashcache_core::pdc::PrimaryDiskCache;

#[derive(Debug, Clone, Copy)]
enum PdcOp {
    Access(u64),
    MarkDirty(u64),
    Insert(u64, bool),
    Flush,
}

fn pdc_op() -> impl Strategy<Value = PdcOp> {
    prop_oneof![
        5 => (0u64..40).prop_map(PdcOp::Access),
        2 => (0u64..40).prop_map(PdcOp::MarkDirty),
        5 => (0u64..40, any::<bool>()).prop_map(|(p, d)| PdcOp::Insert(p, d)),
        1 => Just(PdcOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The PDC's embedded O(1) LRU (recency links and dirty bit in one
    /// node, one hashed lookup per operation) behaves identically to a
    /// naive `Vec`-ordered recency list of (page, dirty): same hits,
    /// same eviction victims with the same dirty bits, same ascending
    /// flush output, whatever mix of operations reorders it.
    #[test]
    fn lru_matches_naive_model(
        capacity in 1usize..12,
        ops in prop::collection::vec(pdc_op(), 1..300),
    ) {
        let mut pdc = PrimaryDiskCache::new(capacity);
        let mut naive: Vec<(u64, bool)> = Vec::new(); // front = most recent
        // Moves `page` to the front, OR-ing in `dirty`; false if absent.
        let touch = |naive: &mut Vec<(u64, bool)>, page: u64, dirty: bool| {
            let Some(at) = naive.iter().position(|&(p, _)| p == page) else {
                return false;
            };
            let (_, was_dirty) = naive.remove(at);
            naive.insert(0, (page, was_dirty | dirty));
            true
        };
        for op in ops {
            match op {
                PdcOp::Access(p) => {
                    prop_assert_eq!(pdc.access(p), touch(&mut naive, p, false));
                }
                PdcOp::MarkDirty(p) => {
                    prop_assert_eq!(pdc.mark_dirty(p), touch(&mut naive, p, true));
                }
                PdcOp::Insert(p, dirty) => {
                    let evicted = pdc.insert(p, dirty).map(|e| (e.page, e.dirty));
                    if touch(&mut naive, p, dirty) {
                        prop_assert_eq!(evicted, None);
                    } else {
                        let expect = (naive.len() >= capacity).then(|| naive.pop().unwrap());
                        naive.insert(0, (p, dirty));
                        prop_assert_eq!(evicted, expect);
                    }
                }
                PdcOp::Flush => {
                    let mut expect: Vec<u64> =
                        naive.iter().filter(|&&(_, d)| d).map(|&(p, _)| p).collect();
                    expect.sort_unstable();
                    for entry in &mut naive {
                        entry.1 = false;
                    }
                    prop_assert_eq!(pdc.flush_dirty(), expect);
                }
            }
            prop_assert_eq!(pdc.len(), naive.len());
            prop_assert_eq!(pdc.is_empty(), naive.is_empty());
        }
        // `capacity` fresh pages first fill the free slots, then evict
        // every original page: the whole recency order, least recent
        // first, with each dirty bit.
        let order: Vec<(u64, bool)> = (0..capacity as u64)
            .filter_map(|i| pdc.insert(1_000 + i, false))
            .map(|e| (e.page, e.dirty))
            .collect();
        naive.reverse();
        prop_assert_eq!(order, naive);
    }

    /// The PDC behaves like a naive LRU cache with dirty bits: same
    /// hits, same evictions, same flush sets, capacity never exceeded.
    #[test]
    fn pdc_matches_naive_model(
        capacity in 1usize..12,
        ops in prop::collection::vec((0u64..30, any::<bool>()), 1..200),
    ) {
        let mut pdc = PrimaryDiskCache::new(capacity);
        let mut naive_order: Vec<u64> = Vec::new(); // front = MRU
        let mut naive_dirty: HashMap<u64, bool> = HashMap::new();
        for (page, dirty) in ops {
            let evicted = pdc.insert(page, dirty);
            if let Some(d) = naive_dirty.get_mut(&page) {
                *d |= dirty;
                naive_order.retain(|&x| x != page);
                naive_order.insert(0, page);
                prop_assert!(evicted.is_none());
            } else {
                let expected_evict = if naive_order.len() >= capacity {
                    let victim = naive_order.pop().unwrap();
                    Some((victim, naive_dirty.remove(&victim).unwrap()))
                } else {
                    None
                };
                naive_order.insert(0, page);
                naive_dirty.insert(page, dirty);
                prop_assert_eq!(
                    evicted.map(|e| (e.page, e.dirty)),
                    expected_evict
                );
            }
            prop_assert!(pdc.len() <= capacity);
            prop_assert_eq!(pdc.len(), naive_order.len());
        }
        // Flush returns exactly the dirty set.
        let mut flushed = pdc.flush_dirty();
        flushed.sort_unstable();
        let mut expect: Vec<u64> = naive_dirty
            .iter()
            .filter(|(_, &d)| d)
            .map(|(&p, _)| p)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(flushed, expect);
        prop_assert!(pdc.flush_dirty().is_empty());
    }
}
