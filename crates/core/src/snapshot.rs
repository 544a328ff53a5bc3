//! Typed point-in-time snapshot of the flash cache's internal state.
//!
//! [`CacheSnapshot`] gives callers structured access to region
//! allocator state, per-block wear, the FGST, and the accumulated
//! statistics, while the `Display` impl renders a human-readable dump.

use std::fmt;

use crate::cache::{FlashCache, Region};
use crate::stats::CacheStats;
use crate::tables::{Fgst, RegionKind};

/// Allocator state of one region (read or write).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSnapshot {
    /// Which region this is.
    pub kind: RegionKind,
    /// Block ids on the free list, in allocation order.
    pub free_blocks: Vec<u32>,
    /// The write frontier: every open-block position as
    /// `(block, next_slot)`, `None` where a position holds no block, in
    /// round-robin order. One entry on a one-lane device.
    pub open_blocks: Vec<Option<(u32, u32)>>,
    /// The reserved GC-compaction spare, if any.
    pub spare_block: Option<u32>,
    /// Live pages across the region.
    pub valid_pages: u64,
    /// Invalidated-but-not-erased pages across the region.
    pub invalid_pages: u64,
}

impl RegionSnapshot {
    fn from_region(kind: RegionKind, r: &Region) -> Self {
        RegionSnapshot {
            kind,
            free_blocks: r.free.iter().map(|b| b.0).collect(),
            open_blocks: r
                .open
                .iter()
                .map(|o| o.map(|o| (o.id.0, o.next_slot)))
                .collect(),
            spare_block: r.spare.map(|b| b.0),
            valid_pages: r.valid_pages,
            invalid_pages: r.invalid_pages,
        }
    }
}

/// Per-block state summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Block id.
    pub block: u32,
    /// The region the block currently serves.
    pub region: RegionKind,
    /// Valid pages in the block.
    pub valid_pages: u32,
    /// Invalidated pages awaiting erase.
    pub invalid_pages: u32,
    /// Erase cycles performed.
    pub erase_count: u64,
    /// Whether the block is permanently retired.
    pub retired: bool,
    /// The §3.6 degree-of-wear-out cost.
    pub wear_cost: f64,
}

/// Erase-count spread over non-retired blocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearSummary {
    /// Minimum erase count.
    pub min_erases: u64,
    /// Maximum erase count.
    pub max_erases: u64,
    /// Mean erase count.
    pub mean_erases: f64,
    /// Blocks permanently retired.
    pub retired_blocks: u32,
}

/// A typed point-in-time snapshot of a [`FlashCache`].
///
/// # Examples
///
/// ```
/// use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig};
///
/// let mut cache = FlashCache::new(FlashCacheConfig::default()).unwrap();
/// cache.op(CacheOp::read(7));
/// let snap = cache.snapshot();
/// assert_eq!(snap.cached_pages, 1);
/// assert!(snap.regions[0].valid_pages >= 1);
/// println!("{snap}"); // human-readable rendering
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSnapshot {
    /// Logical access clock at snapshot time.
    pub tick: u64,
    /// Number of cached disk pages.
    pub cached_pages: u64,
    /// Usable (non-retired) slots.
    pub usable_slots: u64,
    /// Fraction of non-retired physical pages in SLC mode.
    pub slc_fraction: f64,
    /// Region allocator state: read region first, then the write region
    /// when the cache runs split (one entry under a unified pool).
    pub regions: Vec<RegionSnapshot>,
    /// Per-block summaries, ordered by block id.
    pub blocks: Vec<BlockSummary>,
    /// Erase-count spread.
    pub wear: WearSummary,
    /// The global status table (miss rate, average hit latency).
    pub fgst: Fgst,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

impl FlashCache {
    /// Captures a typed snapshot of the cache's current state.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut regions = vec![RegionSnapshot::from_region(
            RegionKind::Read,
            &self.read_region,
        )];
        if !self.unified {
            regions.push(RegionSnapshot::from_region(
                RegionKind::Write,
                &self.write_region,
            ));
        }
        let blocks: Vec<BlockSummary> = self
            .fbst
            .iter()
            .map(|(b, s)| BlockSummary {
                block: b.0,
                region: s.region,
                valid_pages: s.valid_pages,
                invalid_pages: s.invalid_pages,
                erase_count: s.erase_count,
                retired: s.retired,
                wear_cost: self.fbst.wear_out(b),
            })
            .collect();
        let (min_erases, max_erases, mean_erases) = self.erase_spread();
        let retired_blocks = blocks.iter().filter(|b| b.retired).count() as u32;
        CacheSnapshot {
            tick: self.tick,
            cached_pages: self.cached_pages(),
            usable_slots: self.usable_slots,
            slc_fraction: self.slc_fraction(),
            regions,
            blocks,
            wear: WearSummary {
                min_erases,
                max_erases,
                mean_erases,
                retired_blocks,
            },
            fgst: self.fgst,
            stats: self.stats,
        }
    }
}

impl fmt::Display for CacheSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tick={} cached_pages={} usable_slots={} slc_fraction={:.3}",
            self.tick, self.cached_pages, self.usable_slots, self.slc_fraction
        )?;
        for r in &self.regions {
            let name = match r.kind {
                RegionKind::Read => "read",
                RegionKind::Write => "write",
            };
            writeln!(
                f,
                "{}: free={:?} open={:?} spare={:?} valid={} invalid={}",
                name, r.free_blocks, r.open_blocks, r.spare_block, r.valid_pages, r.invalid_pages
            )?;
        }
        for b in &self.blocks {
            writeln!(
                f,
                "b{}: {:?} valid={} invalid={} erase={} retired={} wear={:.1}",
                b.block,
                b.region,
                b.valid_pages,
                b.invalid_pages,
                b.erase_count,
                b.retired,
                b.wear_cost
            )?;
        }
        write!(
            f,
            "wear: erases min={} max={} mean={:.1}, retired={}",
            self.wear.min_erases,
            self.wear.max_erases,
            self.wear.mean_erases,
            self.wear.retired_blocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheOp;
    use crate::config::FlashCacheConfig;

    #[test]
    fn snapshot_reflects_cache_state() {
        let mut cache = FlashCache::new(FlashCacheConfig::default()).unwrap();
        for p in 0..10u64 {
            cache.op(CacheOp::read(p));
        }
        let snap = cache.snapshot();
        assert_eq!(snap.cached_pages, 10);
        assert_eq!(snap.tick, cache.tick());
        assert_eq!(snap.stats.reads, 10);
        assert_eq!(snap.blocks.len(), cache.device().geometry().blocks as usize);
        let region_valid: u64 = snap.regions.iter().map(|r| r.valid_pages).sum();
        let block_valid: u64 = snap.blocks.iter().map(|b| b.valid_pages as u64).sum();
        assert_eq!(region_valid, block_valid);
        assert!((0.0..=1.0).contains(&snap.slc_fraction));
    }

    #[test]
    fn display_renders_regions_and_blocks() {
        let mut cache = FlashCache::new(FlashCacheConfig::default()).unwrap();
        cache.op(CacheOp::read(1));
        let text = cache.snapshot().to_string();
        assert!(text.contains("read: free="));
        assert!(text.contains("b0:"));
        assert!(text.contains("wear: erases"));
    }
}
