//! Space maintenance for the flash cache: log-structured slot allocation,
//! garbage collection (valid-data compaction, §3.5/Fig. 8), block
//! eviction with the wear-level-aware replacement policy (§3.6), and
//! block retirement (§5.2).
//!
//! All reclaim work (reads, programs, erases performed to make space) is
//! accounted as *background* time in [`CacheStats::gc_time_us`], matching
//! the paper's "all GCs are performed in the background".

use nand_flash::{BlockId, CellMode, OpContext, PageAddr};

use crate::cache::{FlashCache, OpenBlock};
use crate::config::{ECC_LATENCY, GC_MIN_INVALID_FRACTION};
use crate::error::CacheError;
use crate::tables::RegionKind;

/// Where a relocation takes its destination slots from.
enum Dest {
    /// Compaction (Figure 8): `kind`'s allocation stream, via
    /// [`FlashCache::gc_dest_slot`].
    Stream(RegionKind),
    /// §3.6 migration: the slots of an erased block, walked by
    /// [`FlashCache::advance_slot`] as a fresh allocation would.
    Block(BlockId),
}

impl FlashCache {
    fn block_in_region(&self, b: BlockId, kind: RegionKind) -> bool {
        self.fbst.get(b).region == self.storage_kind(kind)
    }

    fn block_is_reserved(&self, b: BlockId) -> bool {
        let check = |r: &crate::cache::Region| {
            r.open.iter().flatten().any(|o| o.id == b) || r.spare == Some(b)
        };
        check(&self.read_region) || check(&self.write_region)
    }

    /// Opens a fresh block at the frontier's current position: the
    /// first free block on a lane none of the region's open blocks
    /// occupies (so the frontier's cell programs overlap), else the
    /// front of `free`, else — with `allow_spare` — the reserved spare.
    /// Returns `false` when there was no block to open.
    fn open_next_block(&mut self, kind: RegionKind, allow_spare: bool) -> bool {
        let region = self.region(kind);
        let lane_is_open = |b: &BlockId| {
            let lane = self.device.lane_of(*b);
            let mut open = region.open.iter().flatten();
            open.any(|o| self.device.lane_of(o.id) == lane)
        };
        let at = region
            .free
            .iter()
            .position(|b| !lane_is_open(b))
            .unwrap_or(0);
        let region = self.region_mut(kind);
        let mut block = region.free.remove(at);
        if block.is_none() && allow_spare {
            block = region.spare.take();
        }
        let Some(id) = block else {
            return false;
        };
        region.open[region.cursor] = Some(OpenBlock { id, next_slot: 0 });
        true
    }

    /// Allocates the next programmable slot in `kind`, making space if
    /// needed. `want_slc` forces the destination physical page into SLC
    /// mode (hot-page promotion). Returns `None` when the device can no
    /// longer provide space (worn out).
    pub(crate) fn allocate_slot(
        &mut self,
        kind: RegionKind,
        want_slc: bool,
    ) -> Result<Option<PageAddr>, CacheError> {
        let mut attempts = 0u32;
        let limit = 2 * self.device.geometry().blocks + 8;
        loop {
            if let Some(addr) = self.take_from_open(kind, want_slc) {
                return Ok(Some(addr));
            }
            if self.open_next_block(kind, false) {
                continue;
            }
            if !self.make_space(kind)? {
                // Last resort: consume the reserved spare so the final
                // surviving blocks still cycle (and can retire) instead
                // of sitting pinned forever.
                if self.open_next_block(kind, true) {
                    continue;
                }
                return Ok(None);
            }
            attempts += 1;
            if attempts > limit {
                return Ok(None);
            }
        }
    }

    /// Advances `next_slot` to the next programmable slot of `block`
    /// compatible with the request's mode, honouring per-physical-page
    /// configuration (and converting MLC pages to SLC for forced-SLC
    /// requests). Shared by open-block allocation and block-to-block
    /// migration — the walk must agree in both, or a migrated block
    /// would be laid out differently than a freshly programmed one.
    fn advance_slot(
        &mut self,
        block: BlockId,
        next_slot: &mut u32,
        want_slc: bool,
    ) -> Option<PageAddr> {
        let spb = self.device.geometry().slots_per_block();
        while *next_slot < spb {
            let addr = PageAddr::new(block, *next_slot);
            let even = PageAddr::new(block, *next_slot & !1u32);
            if want_slc {
                if addr.is_upper_half() {
                    // The lower half is already committed MLC; skip to the
                    // next physical page for an SLC allocation.
                    *next_slot += 1;
                    continue;
                }
                if self.fpst.get(even).mode == CellMode::Mlc {
                    self.fpst.get_mut(even).mode = CellMode::Slc;
                    self.fpst.get_mut(even.sibling()).mode = CellMode::Slc;
                    self.fbst.get_mut(block).slc_pages += 1;
                    // slc_pages is a wear-cost term; keep the index fresh.
                    self.reclaim_sync(block);
                }
                *next_slot += 2;
                return Some(addr);
            }
            if addr.is_upper_half() {
                // Lower half was programmed MLC; the upper half follows.
                *next_slot += 1;
                return Some(addr);
            }
            if self.fpst.get(even).mode == CellMode::Slc {
                // Wear-demoted physical page: one SLC slot, skip sibling.
                *next_slot += 2;
                return Some(addr);
            }
            *next_slot += 1;
            return Some(addr);
        }
        None
    }

    /// Hands out the next slot compatible with the request from the
    /// frontier's current position, honouring per-physical-page mode
    /// configuration, and moves the cursor on so the next slot comes
    /// from the next position (another lane). `None` when the position
    /// holds no block or its block is exhausted.
    fn take_from_open(&mut self, kind: RegionKind, want_slc: bool) -> Option<PageAddr> {
        let idx = self.region(kind).cursor;
        let mut ob = self.region(kind).open[idx]?;
        let result = self.advance_slot(ob.id, &mut ob.next_slot, want_slc);
        let region = self.region_mut(kind);
        // `advance_slot` comes back empty only from an exhausted block.
        region.open[idx] = result.map(|_| ob);
        if result.is_some() {
            region.cursor = (idx + 1) % region.open.len();
        }
        result
    }

    /// Tries to create free space in `kind`. Returns `false` when no
    /// further progress is possible (all blocks retired or pinned).
    fn make_space(&mut self, kind: RegionKind) -> Result<bool, CacheError> {
        // 1. A fully invalidated block can simply be erased.
        if let Some(b) = self.find_fully_invalid(kind) {
            self.erase_and_recycle(b, kind, 0.0)?;
            return Ok(true);
        }
        // 2. Compaction GC — the common case for the write region (§5.1).
        //    The read region compacts only via its watermark trigger.
        if (self.unified || kind == RegionKind::Write) && self.collect_garbage(kind)? {
            return Ok(true);
        }
        // 3. Evict a whole block.
        self.evict_block(kind)
    }

    /// The write-amplification floor for GC victims: minimum invalid
    /// pages a block must carry before compaction beats eviction.
    fn gc_floor(&self) -> u32 {
        let spb = self.device.geometry().slots_per_block();
        ((spb as f64 * GC_MIN_INVALID_FRACTION).ceil() as u32).max(1)
    }

    /// Counts one reclaim-index query and whether it `found` a block.
    fn counted_query(&mut self, found: Option<BlockId>) -> Option<BlockId> {
        self.stats.reclaim_index_queries += 1;
        self.stats.reclaim_index_hits += found.is_some() as u64;
        found
    }

    /// A fully invalidated block of `kind`, from the reclaim index.
    fn find_fully_invalid(&mut self, kind: RegionKind) -> Option<BlockId> {
        let region = self.storage_kind(kind);
        let found = self
            .reclaim
            .fully_invalid(region, |b| self.block_is_reserved(b));
        self.counted_query(found)
    }

    /// O(blocks) ground-truth oracle for [`Self::find_fully_invalid`],
    /// replayed by `check_invariants`.
    fn find_fully_invalid_scan(&self, kind: RegionKind) -> Option<BlockId> {
        self.fbst
            .iter()
            .filter(|(b, s)| {
                !s.retired
                    && self.block_in_region(*b, kind)
                    && !self.block_is_reserved(*b)
                    && s.valid_pages == 0
                    && s.invalid_pages > 0
            })
            .map(|(b, _)| b)
            .next()
    }

    /// The most profitable compaction victim: the block with the most
    /// invalid pages, provided it clears the write-amplification floor
    /// (`GC_MIN_INVALID_FRACTION`) — otherwise `None`, and eviction is
    /// the better reclaim.
    fn find_gc_victim(&mut self, kind: RegionKind) -> Option<BlockId> {
        let region = self.storage_kind(kind);
        self.reclaim.trim_gc_cursor(region);
        let floor = self.gc_floor();
        let found = self
            .reclaim
            .gc_victim(region, floor, |b| self.block_is_reserved(b));
        self.counted_query(found)
    }

    /// O(blocks) ground-truth oracle for [`Self::find_gc_victim`].
    fn find_gc_victim_scan(&self, kind: RegionKind) -> Option<BlockId> {
        let floor = self.gc_floor();
        self.fbst
            .iter()
            .filter(|(b, s)| {
                !s.retired
                    && self.block_in_region(*b, kind)
                    && !self.block_is_reserved(*b)
                    && s.invalid_pages >= floor
                    && s.valid_pages > 0
            })
            .max_by_key(|(_, s)| s.invalid_pages)
            .map(|(b, _)| b)
    }

    /// The least recently used block of `kind` with content.
    fn find_lru_victim(&mut self, kind: RegionKind) -> Option<BlockId> {
        let region = self.storage_kind(kind);
        let found = self
            .reclaim
            .lru_victim(region, |b| self.block_is_reserved(b));
        self.counted_query(found)
    }

    /// O(blocks) ground-truth oracle for [`Self::find_lru_victim`].
    fn find_lru_victim_scan(&self, kind: RegionKind) -> Option<BlockId> {
        self.fbst
            .iter()
            .filter(|(b, s)| {
                !s.retired
                    && self.block_in_region(*b, kind)
                    && !self.block_is_reserved(*b)
                    && s.valid_pages + s.invalid_pages > 0
            })
            .min_by_key(|(_, s)| s.last_access)
            .map(|(b, _)| b)
    }

    /// The globally newest block: minimum degree of wear out across the
    /// *entire* flash (§3.6: "Newest blocks are chosen from the entire
    /// set of Flash blocks"), restricted to blocks whose content can be
    /// migrated.
    fn find_newest_block(&mut self, exclude: BlockId) -> Option<BlockId> {
        let found = self
            .reclaim
            .newest_block(exclude, |b| self.block_is_reserved(b));
        self.counted_query(found)
    }

    /// O(blocks) ground-truth oracle for [`Self::find_newest_block`].
    fn find_newest_block_scan(&self, exclude: BlockId) -> Option<BlockId> {
        self.fbst
            .iter()
            .filter(|(b, s)| {
                *b != exclude && !s.retired && !self.block_is_reserved(*b) && s.valid_pages > 0
            })
            .map(|(b, _)| b)
            .min_by(|&a, &b| {
                // total_cmp: no panic path even for NaN wear costs.
                self.fbst.wear_out(a).total_cmp(&self.fbst.wear_out(b))
            })
    }

    /// Public entry for watermark-triggered compaction. Returns whether a
    /// pass ran (victim selection applies the write-amplification floor).
    pub(crate) fn collect_garbage(&mut self, kind: RegionKind) -> Result<bool, CacheError> {
        let Some(victim) = self.find_gc_victim(kind) else {
            return Ok(false);
        };
        self.gc_compact(victim, kind)?;
        Ok(true)
    }

    /// Whether compaction of a `kind` victim keeps only read-referenced
    /// pages. Relocating a write-region page spends a flash read, a
    /// program and a unit of wear to defer one batched disk write, which
    /// costs less than the program alone; only a later read hit repays
    /// it, and the FPST's decayed access counter (§5.2.2) says whether
    /// the page has had one. The read region and unified mode relocate
    /// every valid page, as in Figure 8.
    fn keeps_referenced_only(&self, kind: RegionKind) -> bool {
        self.storage_kind(kind) == RegionKind::Write
    }

    /// Moves the victim's surviving pages into the allocation stream,
    /// then erases the victim (Figure 8's GC flow). A write-region
    /// victim then goes through the wear comparison of §3.6, because the
    /// write region reclaims by compaction far more often than by
    /// eviction.
    fn gc_compact(&mut self, victim: BlockId, kind: RegionKind) -> Result<(), CacheError> {
        let mut gc_us = 0.0;
        let valid = self.fbst.get(victim).valid_pages;
        let moved = self.relocate_pages(victim, Dest::Stream(kind), &mut gc_us)?;
        self.stats.gc_runs += 1;
        self.stats.gc_dropped_pages += (valid - moved) as u64;
        if self.keeps_referenced_only(kind) {
            if let Some(newest) = self.wear_swap_partner(victim) {
                self.stats.gc_time_us += gc_us;
                return self.wear_level_swap(victim, newest, kind);
            }
        }
        if !self.erase_and_recycle(victim, kind, gc_us)? {
            // The emptied victim refills the compaction spare first.
            let region = self.region_mut(kind);
            if region.spare.is_none() {
                region.spare = region.free.pop_back();
            }
        }
        Ok(())
    }

    /// Relocates the valid pages of `src` to `dest`, each one read in the
    /// background and programmed into a fresh slot whose FCHT entry is
    /// re-pointed in place. A compaction that
    /// [keeps referenced pages only](Self::keeps_referenced_only) evicts
    /// the unread ones instead (dirty ones flushed); a page read back
    /// uncorrectable is lost, and one with no destination slot is
    /// evicted. Returns the number of pages moved.
    fn relocate_pages(
        &mut self,
        src: BlockId,
        dest: Dest,
        gc_us: &mut f64,
    ) -> Result<u32, CacheError> {
        let referenced_only = matches!(dest, Dest::Stream(k) if self.keeps_referenced_only(k));
        let spb = self.device.geometry().slots_per_block();
        let mut next_slot = 0;
        let mut moved = 0;
        for slot in 0..spb {
            let addr = PageAddr::new(src, slot);
            let st = *self.fpst.get(addr);
            if !st.valid {
                continue;
            }
            if referenced_only && self.fpst.access_count(addr) == 0 {
                self.drop_valid_page(addr, true);
                continue;
            }
            let live_t = self.live_strength[self.gidx(addr)];
            let out = self
                .device
                .read_page_with(addr, OpContext::background())
                .map_err(|source| CacheError::TableCorruption { addr, source })?;
            self.stats.flash_reads += 1;
            *gc_us += out.latency_us + ECC_LATENCY.decode_us(live_t as usize);
            if out.raw_bit_errors > live_t as u32 {
                self.raise_lost_copy();
                self.drop_valid_page(addr, false);
                continue;
            }
            let access = self.fpst.access_count(addr);
            let want_slc =
                access >= self.config.hot_threshold && self.config.controller.switches_density();
            let dst = match dest {
                Dest::Stream(kind) => self.gc_dest_slot(kind, want_slc),
                Dest::Block(b) => self.advance_slot(b, &mut next_slot, want_slc),
            };
            let Some(dst) = dst else {
                self.drop_valid_page(addr, true);
                continue;
            };
            let disk_page = self
                .unmap_page(addr)
                .ok_or(CacheError::MappingMissing { addr })?;
            *gc_us += self.program_slot(dst, disk_page, st.dirty, access)?;
            self.stats.gc_moved_pages += 1;
            moved += 1;
        }
        Ok(moved)
    }

    /// A destination slot for relocation: never recurses into
    /// `make_space`; falls back to consuming the spare block.
    fn gc_dest_slot(&mut self, kind: RegionKind, want_slc: bool) -> Option<PageAddr> {
        loop {
            if let Some(a) = self.take_from_open(kind, want_slc) {
                return Some(a);
            }
            if !self.open_next_block(kind, true) {
                return None;
            }
        }
    }

    /// §3.6: the globally newest block, when `victim`'s wear cost exceeds
    /// it by more than `wear_threshold`.
    fn wear_swap_partner(&mut self, victim: BlockId) -> Option<BlockId> {
        if !self.config.wear_threshold.is_finite() {
            return None;
        }
        let newest = self.find_newest_block(victim)?;
        let gap = self.fbst.wear_out(victim) - self.fbst.wear_out(newest);
        (gap > self.config.wear_threshold).then_some(newest)
    }

    /// Evicts a whole block chosen by block-LRU, applying the
    /// wear-level-aware override of §3.6.
    fn evict_block(&mut self, kind: RegionKind) -> Result<bool, CacheError> {
        let Some(victim) = self.find_lru_victim(kind) else {
            return Ok(false);
        };
        let partner = self.wear_swap_partner(victim);
        if self.storage_kind(kind) == RegionKind::Read {
            if let Some(sketch) = &mut self.admission {
                let pages = self.fpst.iter_block(victim);
                sketch.observe_eviction(pages.filter_map(|(a, _)| self.fpst.disk_page(a)));
            }
        }
        self.drop_block_content(victim);
        self.stats.evictions += 1;
        match partner {
            Some(newest) => self.wear_level_swap(victim, newest, kind)?,
            None => {
                self.erase_and_recycle(victim, kind, 0.0)?;
            }
        }
        Ok(true)
    }

    /// §3.6: the old (worn) block, already emptied by its caller's
    /// eviction or compaction, absorbs the newest block's content; the
    /// newest block is erased and handed to the requesting region,
    /// balancing wear.
    fn wear_level_swap(
        &mut self,
        old: BlockId,
        newest: BlockId,
        kind: RegionKind,
    ) -> Result<(), CacheError> {
        let mut gc_us = 0.0;
        if self.erase_block_internal(old, &mut gc_us)? {
            // The worn block died on erase; treat as a plain eviction.
            self.stats.gc_time_us += gc_us;
            return Ok(());
        }
        // The old block takes over the newest block's identity.
        let newest_state = *self.fbst.get(newest);
        {
            let bs = self.fbst.get_mut(old);
            bs.region = newest_state.region;
            bs.last_access = newest_state.last_access;
        }
        self.relocate_pages(newest, Dest::Block(old), &mut gc_us)?;
        // If migration salvaged nothing (end-of-life uncorrectable reads
        // can drop every page), the old block is erased and empty: hand
        // it to the requesting region's free pool rather than leaving it
        // orphaned outside every allocator structure.
        let old_bs = self.fbst.get(old);
        if old_bs.valid_pages + old_bs.invalid_pages == 0 {
            self.free_block(old, kind);
        }
        self.erase_and_recycle(newest, kind, gc_us)?;
        self.stats.wear_migrations += 1;
        Ok(())
    }

    /// Flushes/drops every valid page of a block prior to erasure.
    fn drop_block_content(&mut self, b: BlockId) {
        let spb = self.device.geometry().slots_per_block();
        for slot in 0..spb {
            let addr = PageAddr::new(b, slot);
            if self.fpst.get(addr).valid {
                self.drop_valid_page(addr, true);
            }
        }
    }

    /// Erases `b` (which must hold no valid pages), resets its page
    /// bookkeeping, probes post-erase health, and retires the block if a
    /// physical page can no longer be protected at any configuration the
    /// policy can reach. Returns `true` if the block was retired.
    fn erase_block_internal(&mut self, b: BlockId, gc_us: &mut f64) -> Result<bool, CacheError> {
        debug_assert_eq!(self.fbst.get(b).valid_pages, 0, "erase of live block");
        let region = self.fbst.get(b).region;
        let invalid = self.fbst.get(b).invalid_pages;
        self.region_mut(region).invalid_pages -= invalid as u64;
        let spb = self.device.geometry().slots_per_block();
        for slot in 0..spb {
            let addr = PageAddr::new(b, slot);
            let st = self.fpst.get_mut(addr);
            st.valid = false;
            st.dirty = false;
            st.access_count = 0;
            st.error_streak = 0;
            self.fpst.clear_disk_page(addr);
        }
        {
            let bs = self.fbst.get_mut(b);
            bs.valid_pages = 0;
            bs.invalid_pages = 0;
            bs.erase_count += 1;
        }
        let out = self
            .device
            .erase_block_with(b, OpContext::background())
            .map_err(|source| CacheError::BlockOp { block: b, source })?;
        self.stats.erases += 1;
        *gc_us += out.latency_us;
        // Retirement probe (§5.2): a page past the strongest reachable
        // configuration kills the whole block.
        let max_t = self.config.controller.max_strength() as u32;
        let allow_slc = self.config.controller.switches_density();
        let mut dead = false;
        for phys in 0..self.device.geometry().pages_per_block {
            let addr = PageAddr::new(b, phys * 2);
            let (fail_slc, fail_mlc) = self.device.probe_page_health(addr);
            let best_case = if allow_slc { fail_slc } else { fail_mlc };
            if best_case > max_t {
                dead = true;
                break;
            }
        }
        if dead {
            self.fbst.get_mut(b).retired = true;
            self.stats.retired_blocks += 1;
            self.usable_slots = self
                .usable_slots
                .saturating_sub(self.device.geometry().slots_per_block() as u64);
        }
        // One reconciliation covers the erase (counts zeroed, erase_count
        // bumped) and any retirement. Callers may reassign the block's
        // region afterwards, but only while it is empty — a no-op for the
        // index, so no further sync is needed at the handoff sites.
        self.reclaim_sync(b);
        Ok(dead)
    }

    /// Erases `b`, charges the erase and the caller's background work
    /// so far (`gc_us`) to GC time, and hands `b` to `kind`'s free list
    /// unless it retired. Returns whether it retired.
    fn erase_and_recycle(
        &mut self,
        b: BlockId,
        kind: RegionKind,
        mut gc_us: f64,
    ) -> Result<bool, CacheError> {
        let retired = self.erase_block_internal(b, &mut gc_us)?;
        self.stats.gc_time_us += gc_us;
        if !retired {
            self.free_block(b, kind);
        }
        Ok(retired)
    }

    /// Hands the erased, empty block `b` to `kind`'s free list.
    fn free_block(&mut self, b: BlockId, kind: RegionKind) {
        let storage = self.storage_kind(kind);
        self.fbst.get_mut(b).region = storage;
        self.region_mut(kind).free.push_back(b);
    }

    /// Test/diagnostic hook: consistency check between the incremental
    /// region counters and a full FPST scan. O(slots); debug use only.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        let g = self.device.geometry();
        let mut valid = [0u64; 2];
        let mut invalid_programmed = 0u64;
        for b in g.iter_blocks() {
            let mut bv = 0u32;
            for slot in 0..g.slots_per_block() {
                let addr = PageAddr::new(b, slot);
                let st = self.fpst.get(addr);
                if st.valid {
                    bv += 1;
                    let dp = self
                        .fpst
                        .disk_page(addr)
                        .ok_or_else(|| format!("{addr}: valid without mapping"))?;
                    if self.fcht.lookup(dp) != Some(addr) {
                        return Err(format!("{addr}: FCHT does not point back"));
                    }
                    let idx = match self.fbst.get(b).region {
                        RegionKind::Read => 0,
                        RegionKind::Write => 1,
                    };
                    valid[idx] += 1;
                    if !self.device.is_programmed(addr) {
                        return Err(format!("{addr}: valid but not programmed on device"));
                    }
                }
            }
            let bs = self.fbst.get(b);
            if bs.valid_pages != bv {
                return Err(format!(
                    "{b}: FBST valid {} != recount {bv}",
                    bs.valid_pages
                ));
            }
            // The incrementally maintained wear-cost components must
            // agree with a full FPST recount.
            if bs.total_ecc != self.fpst.total_ecc(b) {
                return Err(format!(
                    "{b}: FBST TotalECC {} != FPST recount {}",
                    bs.total_ecc,
                    self.fpst.total_ecc(b)
                ));
            }
            if bs.slc_pages != self.fpst.total_slc(b) {
                return Err(format!(
                    "{b}: FBST TotalSLC {} != FPST recount {}",
                    bs.slc_pages,
                    self.fpst.total_slc(b)
                ));
            }
            invalid_programmed += bs.invalid_pages as u64;
        }
        let region_valid = self.read_region.valid_pages + self.write_region.valid_pages;
        if region_valid != valid[0] + valid[1] {
            return Err(format!(
                "region valid counters {region_valid} != recount {}",
                valid[0] + valid[1]
            ));
        }
        let region_invalid = self.read_region.invalid_pages + self.write_region.invalid_pages;
        if region_invalid != invalid_programmed {
            return Err(format!(
                "region invalid counters {region_invalid} != recount {invalid_programmed}"
            ));
        }
        // The allocator holds each block at most once: in one frontier
        // position, on a free list, or as a spare.
        let mut held: Vec<BlockId> = Vec::new();
        for r in [&self.read_region, &self.write_region] {
            held.extend(r.open.iter().flatten().map(|o| o.id));
            held.extend(&r.free);
            held.extend(r.spare);
        }
        held.sort_unstable();
        if let Some(w) = held.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "{}: held twice by the allocator (frontier, free or spare)",
                w[0]
            ));
        }
        if self.fcht.len() as u64 != valid[0] + valid[1] {
            return Err(format!(
                "FCHT size {} != valid pages {}",
                self.fcht.len(),
                valid[0] + valid[1]
            ));
        }
        // The incremental reclaim index must mirror the FBST exactly
        // (membership and keys).
        self.reclaim.verify(&self.fbst)?;
        // Differential: every index query must return a victim with the
        // same ordering key as the O(blocks) scan oracle. Ties may break
        // toward a different block; the keys must agree.
        let reserved = |b: BlockId| self.block_is_reserved(b);
        let kinds: &[RegionKind] = if self.unified {
            &[RegionKind::Read]
        } else {
            &[RegionKind::Read, RegionKind::Write]
        };
        let mut excludes = vec![BlockId(u32::MAX)];
        for &kind in kinds {
            let scan = self.find_fully_invalid_scan(kind);
            let idx = self.reclaim.fully_invalid(kind, reserved);
            if scan.is_some() != idx.is_some() {
                return Err(format!(
                    "{kind:?}: fully-invalid scan {scan:?} vs index {idx:?}"
                ));
            }
            let scan = self.find_gc_victim_scan(kind);
            let idx = self.reclaim.gc_victim(kind, self.gc_floor(), reserved);
            match (scan, idx) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let (ka, kb) = (
                        self.fbst.get(a).invalid_pages,
                        self.fbst.get(b).invalid_pages,
                    );
                    if ka != kb {
                        return Err(format!(
                            "{kind:?}: GC scan {a} (invalid {ka}) vs index {b} (invalid {kb})"
                        ));
                    }
                }
                (scan, idx) => {
                    return Err(format!("{kind:?}: GC scan {scan:?} vs index {idx:?}"));
                }
            }
            let scan = self.find_lru_victim_scan(kind);
            let idx = self.reclaim.lru_victim(kind, reserved);
            match (scan, idx) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let (ka, kb) = (self.fbst.get(a).last_access, self.fbst.get(b).last_access);
                    if ka != kb {
                        return Err(format!(
                            "{kind:?}: LRU scan {a} (access {ka}) vs index {b} (access {kb})"
                        ));
                    }
                    excludes.push(a);
                }
                (scan, idx) => {
                    return Err(format!("{kind:?}: LRU scan {scan:?} vs index {idx:?}"));
                }
            }
        }
        // Newest-block query, both with a sentinel exclusion and with the
        // real eviction victims §3.6 would compare against.
        for exclude in excludes {
            let scan = self.find_newest_block_scan(exclude);
            let idx = self.reclaim.newest_block(exclude, reserved);
            match (scan, idx) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let (wa, wb) = (self.fbst.wear_out(a), self.fbst.wear_out(b));
                    if wa != wb {
                        return Err(format!(
                            "newest scan {a} (wear {wa}) vs index {b} (wear {wb})"
                        ));
                    }
                }
                (scan, idx) => {
                    return Err(format!("newest scan {scan:?} vs index {idx:?}"));
                }
            }
        }
        Ok(())
    }
}
