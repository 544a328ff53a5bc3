//! Incremental reclaim indexes: O(1)/O(log B) victim selection for GC,
//! eviction, and wear levelling.
//!
//! The paper's reclaim machinery (§3.5–3.6) asks four questions of the
//! FBST every time space must be made:
//!
//! 1. *fully invalid* — a block with no valid pages that can simply be
//!    erased;
//! 2. *GC victim* — the block with the most invalid pages, above the
//!    write-amplification floor;
//! 3. *LRU victim* — the least recently used block with content;
//! 4. *newest block* — the globally least worn block (§3.6 override).
//!
//! The seed answered each with a full O(blocks) FBST scan per miss,
//! which dominates steady-state reclaim at realistic geometries. This
//! module answers all four incrementally:
//!
//! * a per-region **bucketed invalid-count index** (`Vec<BTreeSet>`
//!   indexed by `invalid_pages`, plus a running max-bucket cursor)
//!   serves the GC victim and fully-invalid queries;
//! * a per-region **block LRU** reuses the O(1) dense-keyed
//!   [`DenseLru`](crate::lru::DenseLru) — touch order is exactly
//!   `last_access` order, so the tracker's tail is the scan's
//!   `min_by_key(last_access)`;
//! * a global **wear ordering** (a bucket queue: `BTreeMap` keyed by
//!   the exact bit pattern of the §3.3 wear cost) serves the
//!   newest-block query, updated only at the O(1) points where
//!   `erase_count`/`TotalECC`/`TotalSLC` already change.
//!
//! Membership rules mirror the scans' filters exactly; the handful of
//! *reserved* blocks (open/spare allocator blocks) are filtered at
//! query time since at most four exist. The retained scans stay behind
//! [`FlashCache::check_invariants`](crate::cache::FlashCache) as
//! ground-truth oracles, and every index structure is cross-checked
//! against an FBST recount there.

use std::cell::Cell;
use std::collections::BTreeSet;

use nand_flash::BlockId;

use crate::lru::DenseLru;
use crate::tables::{Fbst, RegionKind};

/// A sorted `Vec<u32>` set. The invalid-count buckets hold a handful of
/// block ids each but are updated on *every* program and invalidate;
/// a flat sorted vector keeps those updates allocation-free (`BTreeSet`
/// node churn dominated the replay profile), while iteration stays in
/// ascending order like the `BTreeSet` it replaces.
#[derive(Debug, Clone, Default)]
struct SortedSet(Vec<u32>);

impl SortedSet {
    fn insert(&mut self, v: u32) {
        if let Err(i) = self.0.binary_search(&v) {
            self.0.insert(i, v);
        }
    }

    fn remove(&mut self, v: u32) {
        if let Ok(i) = self.0.binary_search(&v) {
            self.0.remove(i);
        }
    }

    fn contains(&self, v: u32) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Ascending iteration (double-ended, like `BTreeSet::iter`).
    fn iter(&self) -> std::slice::Iter<'_, u32> {
        self.0.iter()
    }
}

/// Maps an `f64` wear cost onto a `u64` whose unsigned order matches
/// the float's `partial_cmp` order (for non-NaN values). Keys compare
/// *exactly* as the scan oracle compares costs — no quantization.
fn order_key(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Where a block currently lives in its region's invalid-count index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketLoc {
    /// Not indexed (no programmed pages, or invalid count is zero).
    None,
    /// In the fully-invalid set (`valid == 0`, `invalid > 0`).
    FullyInvalid,
    /// In GC bucket `invalid` (`valid > 0`, `invalid > 0`).
    Gc(u32),
}

/// The per-region structures: invalid-count buckets plus block LRU.
#[derive(Debug)]
struct RegionIndex {
    /// Blocks with `valid == 0 && invalid > 0` — erasable for free.
    fully_invalid: SortedSet,
    /// `gc_buckets[i]`: blocks with `valid > 0 && invalid == i`.
    /// Index 0 is never populated (kept so `invalid` indexes directly).
    gc_buckets: Vec<SortedSet>,
    /// Upper bound on the highest non-empty GC bucket. Raised eagerly
    /// on insert, lowered lazily — each lowering step pairs with an
    /// earlier insert, so the walk is amortized O(1).
    max_bucket: u32,
    /// Blocks with any programmed pages, in `last_access` order.
    lru: DenseLru,
}

impl RegionIndex {
    fn new(blocks: u32, slots_per_block: u32) -> Self {
        RegionIndex {
            fully_invalid: SortedSet::default(),
            gc_buckets: vec![SortedSet::default(); slots_per_block as usize + 1],
            max_bucket: 0,
            lru: DenseLru::with_capacity(blocks as usize),
        }
    }

    fn bucket_remove(&mut self, b: BlockId, loc: BucketLoc) {
        match loc {
            BucketLoc::None => {}
            BucketLoc::FullyInvalid => {
                self.fully_invalid.remove(b.0);
            }
            BucketLoc::Gc(i) => {
                self.gc_buckets[i as usize].remove(b.0);
            }
        }
    }

    fn bucket_insert(&mut self, b: BlockId, loc: BucketLoc) {
        match loc {
            BucketLoc::None => {}
            BucketLoc::FullyInvalid => {
                self.fully_invalid.insert(b.0);
            }
            BucketLoc::Gc(i) => {
                self.gc_buckets[i as usize].insert(b.0);
                self.max_bucket = self.max_bucket.max(i);
            }
        }
    }
}

/// The incremental reclaim index of a
/// [`FlashCache`](crate::cache::FlashCache). Maintained at every FBST
/// mutation via [`ReclaimIndex::sync`]; queried by `make_space` instead
/// of scanning.
#[derive(Debug)]
pub(crate) struct ReclaimIndex {
    read: RegionIndex,
    write: RegionIndex,
    /// Wear ordering over non-retired blocks with valid pages, as flat
    /// `(exact-cost key, block)` pairs: the `BTreeSet` keeps the
    /// minimum (the "newest" block) at the front in O(log B), and a
    /// single flat tree re-keys without the per-bucket set allocations
    /// a map-of-sets pays on every program.
    wear: BTreeSet<(u64, u32)>,
    /// Per block: the wear key it is filed under, if a member.
    wear_key: Vec<Option<u64>>,
    /// Per block: which region's index holds it (None = no content).
    region_of: Vec<Option<RegionKind>>,
    /// Per block: its location in that region's invalid-count index.
    loc: Vec<BucketLoc>,
    /// Entries stepped over during queries (reserved blocks, excluded
    /// blocks): the index's residual non-O(1) work, surfaced through
    /// `flash.reclaim_index_skips`.
    skips: Cell<u64>,
}

impl ReclaimIndex {
    pub(crate) fn new(blocks: u32, slots_per_block: u32) -> Self {
        ReclaimIndex {
            read: RegionIndex::new(blocks, slots_per_block),
            write: RegionIndex::new(blocks, slots_per_block),
            wear: BTreeSet::new(),
            wear_key: vec![None; blocks as usize],
            region_of: vec![None; blocks as usize],
            loc: vec![BucketLoc::None; blocks as usize],
            skips: Cell::new(0),
        }
    }

    fn region(&self, kind: RegionKind) -> &RegionIndex {
        match kind {
            RegionKind::Read => &self.read,
            RegionKind::Write => &self.write,
        }
    }

    /// Reconciles every index structure with a block's FBST state.
    /// Called after any mutation of `valid_pages`, `invalid_pages`,
    /// `retired`, or the wear-cost components. O(log B) worst case;
    /// no-ops when nothing relevant changed.
    pub(crate) fn sync(
        &mut self,
        b: BlockId,
        region: RegionKind,
        valid: u32,
        invalid: u32,
        retired: bool,
        wear_cost: f64,
    ) {
        let i = b.0 as usize;
        // --- region membership (buckets + LRU) ---
        let want_region = if retired || valid + invalid == 0 {
            None
        } else {
            Some(region)
        };
        let want_loc = match want_region {
            None => BucketLoc::None,
            Some(_) if valid == 0 => BucketLoc::FullyInvalid,
            Some(_) if invalid > 0 => BucketLoc::Gc(invalid),
            Some(_) => BucketLoc::None,
        };
        let cur_region = self.region_of[i];
        if cur_region != want_region {
            if let Some(old) = cur_region {
                let old_loc = self.loc[i];
                let r = match old {
                    RegionKind::Read => &mut self.read,
                    RegionKind::Write => &mut self.write,
                };
                r.bucket_remove(b, old_loc);
                r.lru.remove(b.0);
                self.loc[i] = BucketLoc::None;
            }
            if let Some(new) = want_region {
                let r = match new {
                    RegionKind::Read => &mut self.read,
                    RegionKind::Write => &mut self.write,
                };
                // A block (re)gains content only via a program, which
                // stamps `last_access = now` — entering as MRU is the
                // correct recency position.
                r.lru.touch(b.0);
                r.bucket_insert(b, want_loc);
                self.loc[i] = want_loc;
            }
            self.region_of[i] = want_region;
        } else if let Some(kind) = cur_region {
            if self.loc[i] != want_loc {
                let old_loc = self.loc[i];
                let r = match kind {
                    RegionKind::Read => &mut self.read,
                    RegionKind::Write => &mut self.write,
                };
                r.bucket_remove(b, old_loc);
                r.bucket_insert(b, want_loc);
                self.loc[i] = want_loc;
            }
        }
        // --- wear ordering membership ---
        let want_wear = if valid > 0 && !retired {
            Some(order_key(wear_cost))
        } else {
            None
        };
        if self.wear_key[i] != want_wear {
            if let Some(old) = self.wear_key[i] {
                self.wear.remove(&(old, b.0));
            }
            if let Some(new) = want_wear {
                self.wear.insert((new, b.0));
            }
            self.wear_key[i] = want_wear;
        }
    }

    /// Marks `b` most recently used in whichever region tracks it
    /// (no-op for blocks with no content). Called wherever the FBST's
    /// `last_access` is stamped.
    pub(crate) fn touch(&mut self, b: BlockId) {
        if let Some(kind) = self.region_of[b.0 as usize] {
            let r = match kind {
                RegionKind::Read => &mut self.read,
                RegionKind::Write => &mut self.write,
            };
            r.lru.touch(b.0);
        }
    }

    fn skip(&self) {
        self.skips.set(self.skips.get() + 1);
    }

    /// Entries stepped over by queries so far (exported as a metric).
    pub(crate) fn skips(&self) -> u64 {
        self.skips.get()
    }

    /// A fully-invalid block of `kind` (lowest id, matching the scan
    /// oracle's iteration order), skipping reserved blocks.
    pub(crate) fn fully_invalid(
        &self,
        kind: RegionKind,
        reserved: impl Fn(BlockId) -> bool,
    ) -> Option<BlockId> {
        self.region(kind)
            .fully_invalid
            .iter()
            .map(|&b| BlockId(b))
            .find(|&b| {
                let ok = !reserved(b);
                if !ok {
                    self.skip();
                }
                ok
            })
    }

    /// The most profitable GC victim of `kind`: highest invalid count
    /// at least `floor`, ties broken toward the highest block id
    /// (matching `max_by_key`'s last-maximum rule in the scan oracle).
    pub(crate) fn gc_victim(
        &self,
        kind: RegionKind,
        floor: u32,
        reserved: impl Fn(BlockId) -> bool,
    ) -> Option<BlockId> {
        let r = self.region(kind);
        let top = r.max_bucket.min(r.gc_buckets.len() as u32 - 1);
        for bucket in (floor.max(1)..=top).rev() {
            for &b in r.gc_buckets[bucket as usize].iter().rev() {
                if reserved(BlockId(b)) {
                    self.skip();
                    continue;
                }
                return Some(BlockId(b));
            }
        }
        None
    }

    /// Lowers `kind`'s max-bucket cursor past empty buckets so hot-path
    /// GC queries stay amortized O(1). Read-only queries (invariant
    /// checks) skip this and pay the walk instead.
    pub(crate) fn trim_gc_cursor(&mut self, kind: RegionKind) {
        let r = match kind {
            RegionKind::Read => &mut self.read,
            RegionKind::Write => &mut self.write,
        };
        let top = r.max_bucket.min(r.gc_buckets.len() as u32 - 1);
        r.max_bucket = (1..=top)
            .rev()
            .find(|&i| !r.gc_buckets[i as usize].is_empty())
            .unwrap_or(0);
    }

    /// The least recently used block of `kind` with content, skipping
    /// reserved blocks. The tracker's LRU-first order equals ascending
    /// `last_access` order and stamps are unique, so the first
    /// acceptable block is the scan's `min_by_key(last_access)` block.
    pub(crate) fn lru_victim(
        &self,
        kind: RegionKind,
        reserved: impl Fn(BlockId) -> bool,
    ) -> Option<BlockId> {
        self.region(kind)
            .lru
            .iter_lru_first()
            .map(BlockId)
            .find(|&b| {
                let ok = !reserved(b);
                if !ok {
                    self.skip();
                }
                ok
            })
    }

    /// The globally newest (least worn) block with valid pages, ties
    /// broken toward the lowest id (matching `min_by`'s first-minimum
    /// rule in the scan oracle). `exclude` is the eviction victim the
    /// §3.6 override is comparing against.
    pub(crate) fn newest_block(
        &self,
        exclude: BlockId,
        reserved: impl Fn(BlockId) -> bool,
    ) -> Option<BlockId> {
        for &(_, b) in &self.wear {
            let b = BlockId(b);
            if b == exclude || reserved(b) {
                self.skip();
                continue;
            }
            return Some(b);
        }
        None
    }

    /// Cross-checks every index structure against an FBST recount.
    /// O(blocks); used by `check_invariants` to keep the incremental
    /// maintenance honest against the ground truth.
    pub(crate) fn verify(&self, fbst: &Fbst) -> Result<(), String> {
        let mut counts = [(0usize, 0usize, 0usize); 2]; // (fully, gc, lru)
        let mut wear_members = 0usize;
        for (b, s) in fbst.iter() {
            let i = b.0 as usize;
            let expect_region = if s.retired || s.valid_pages + s.invalid_pages == 0 {
                None
            } else {
                Some(s.region)
            };
            if self.region_of[i] != expect_region {
                return Err(format!(
                    "{b}: reclaim region {:?} != expected {:?}",
                    self.region_of[i], expect_region
                ));
            }
            let expect_loc = match expect_region {
                None => BucketLoc::None,
                Some(_) if s.valid_pages == 0 => BucketLoc::FullyInvalid,
                Some(_) if s.invalid_pages > 0 => BucketLoc::Gc(s.invalid_pages),
                Some(_) => BucketLoc::None,
            };
            if self.loc[i] != expect_loc {
                return Err(format!(
                    "{b}: reclaim bucket {:?} != expected {:?}",
                    self.loc[i], expect_loc
                ));
            }
            if let Some(kind) = expect_region {
                let r = self.region(kind);
                let ri = match kind {
                    RegionKind::Read => 0,
                    RegionKind::Write => 1,
                };
                match expect_loc {
                    BucketLoc::FullyInvalid => {
                        if !r.fully_invalid.contains(b.0) {
                            return Err(format!("{b}: missing from fully-invalid set"));
                        }
                        counts[ri].0 += 1;
                    }
                    BucketLoc::Gc(inv) => {
                        if !r.gc_buckets[inv as usize].contains(b.0) {
                            return Err(format!("{b}: missing from GC bucket {inv}"));
                        }
                        if inv > r.max_bucket {
                            return Err(format!(
                                "{b}: GC bucket {inv} above cursor {}",
                                r.max_bucket
                            ));
                        }
                        counts[ri].1 += 1;
                    }
                    BucketLoc::None => {}
                }
                if !r.lru.contains(b.0) {
                    return Err(format!("{b}: missing from {kind:?} block LRU"));
                }
                counts[ri].2 += 1;
            }
            let expect_wear = if s.valid_pages > 0 && !s.retired {
                Some(order_key(fbst.wear_out(b)))
            } else {
                None
            };
            if self.wear_key[i] != expect_wear {
                return Err(format!(
                    "{b}: wear key {:?} != expected {:?} (cost {})",
                    self.wear_key[i],
                    expect_wear,
                    fbst.wear_out(b)
                ));
            }
            if let Some(key) = expect_wear {
                if !self.wear.contains(&(key, b.0)) {
                    return Err(format!("{b}: missing from wear bucket {key:#x}"));
                }
                wear_members += 1;
            }
        }
        // No stale entries: totals must match the recount exactly.
        for (ri, kind) in [(0, RegionKind::Read), (1, RegionKind::Write)] {
            let r = self.region(kind);
            let gc_total: usize = r.gc_buckets.iter().map(|s| s.len()).sum();
            if r.fully_invalid.len() != counts[ri].0 {
                return Err(format!(
                    "{kind:?}: fully-invalid set has {} entries, expected {}",
                    r.fully_invalid.len(),
                    counts[ri].0
                ));
            }
            if gc_total != counts[ri].1 {
                return Err(format!(
                    "{kind:?}: GC buckets hold {gc_total} entries, expected {}",
                    counts[ri].1
                ));
            }
            if r.lru.len() != counts[ri].2 {
                return Err(format!(
                    "{kind:?}: block LRU has {} entries, expected {}",
                    r.lru.len(),
                    counts[ri].2
                ));
            }
        }
        let wear_total = self.wear.len();
        if wear_total != wear_members {
            return Err(format!(
                "wear index holds {wear_total} entries, expected {wear_members}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_preserves_float_order() {
        let costs = [0.0, 0.5, 1.0, 1.5, 8.0, 64.25, 1e9, f64::MAX];
        for w in costs.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(order_key(-1.0) < order_key(0.0));
        assert!(order_key(-2.0) < order_key(-1.0));
        assert_eq!(order_key(3.25), order_key(3.25));
    }

    #[test]
    fn sync_moves_block_between_structures() {
        let mut idx = ReclaimIndex::new(8, 16);
        let b = BlockId(3);
        // Program: one valid page, no invalid — LRU + wear only.
        idx.sync(b, RegionKind::Read, 1, 0, false, 2.0);
        assert_eq!(idx.lru_victim(RegionKind::Read, |_| false), Some(b));
        assert_eq!(idx.newest_block(BlockId(999), |_| false), Some(b));
        assert_eq!(idx.gc_victim(RegionKind::Read, 1, |_| false), None);
        // Invalidate one of two: GC bucket 1.
        idx.sync(b, RegionKind::Read, 1, 1, false, 2.0);
        assert_eq!(idx.gc_victim(RegionKind::Read, 1, |_| false), Some(b));
        assert_eq!(idx.fully_invalid(RegionKind::Read, |_| false), None);
        // Last valid page gone: fully invalid, out of the wear order.
        idx.sync(b, RegionKind::Read, 0, 2, false, 2.0);
        assert_eq!(idx.fully_invalid(RegionKind::Read, |_| false), Some(b));
        assert_eq!(idx.gc_victim(RegionKind::Read, 1, |_| false), None);
        assert_eq!(idx.newest_block(BlockId(999), |_| false), None);
        // Erase: empty everywhere.
        idx.sync(b, RegionKind::Read, 0, 0, false, 3.0);
        assert_eq!(idx.fully_invalid(RegionKind::Read, |_| false), None);
        assert_eq!(idx.lru_victim(RegionKind::Read, |_| false), None);
    }

    #[test]
    fn gc_victim_prefers_highest_bucket_then_highest_id() {
        let mut idx = ReclaimIndex::new(8, 16);
        idx.sync(BlockId(1), RegionKind::Write, 3, 5, false, 1.0);
        idx.sync(BlockId(2), RegionKind::Write, 2, 9, false, 1.0);
        idx.sync(BlockId(4), RegionKind::Write, 2, 9, false, 1.0);
        assert_eq!(
            idx.gc_victim(RegionKind::Write, 2, |_| false),
            Some(BlockId(4)),
            "last maximum, as max_by_key breaks ties"
        );
        // Floor above every bucket: nothing qualifies.
        assert_eq!(idx.gc_victim(RegionKind::Write, 10, |_| false), None);
        // Reserved blocks are stepped over.
        assert_eq!(
            idx.gc_victim(RegionKind::Write, 2, |b| b == BlockId(4)),
            Some(BlockId(2))
        );
        assert!(idx.skips() > 0);
    }

    #[test]
    fn wear_order_updates_with_cost_changes() {
        let mut idx = ReclaimIndex::new(4, 8);
        idx.sync(BlockId(0), RegionKind::Read, 1, 0, false, 5.0);
        idx.sync(BlockId(1), RegionKind::Read, 1, 0, false, 3.0);
        assert_eq!(idx.newest_block(BlockId(99), |_| false), Some(BlockId(1)));
        // Block 1 wears past block 0.
        idx.sync(BlockId(1), RegionKind::Read, 1, 0, false, 9.0);
        assert_eq!(idx.newest_block(BlockId(99), |_| false), Some(BlockId(0)));
        // Excluding the newest falls through to the next.
        assert_eq!(idx.newest_block(BlockId(0), |_| false), Some(BlockId(1)));
        // Retirement removes a block permanently.
        idx.sync(BlockId(0), RegionKind::Read, 1, 0, true, 5.0);
        assert_eq!(idx.newest_block(BlockId(99), |_| false), Some(BlockId(1)));
    }

    #[test]
    fn trim_cursor_drops_emptied_buckets() {
        let mut idx = ReclaimIndex::new(8, 16);
        idx.sync(BlockId(1), RegionKind::Read, 1, 12, false, 1.0);
        idx.sync(BlockId(2), RegionKind::Read, 1, 3, false, 1.0);
        assert_eq!(idx.read.max_bucket, 12);
        // Block 1 erased: bucket 12 empties.
        idx.sync(BlockId(1), RegionKind::Read, 0, 0, false, 2.0);
        idx.trim_gc_cursor(RegionKind::Read);
        assert_eq!(idx.read.max_bucket, 3);
        assert_eq!(
            idx.gc_victim(RegionKind::Read, 1, |_| false),
            Some(BlockId(2))
        );
    }
}
