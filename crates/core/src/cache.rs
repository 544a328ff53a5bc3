//! The flash based secondary disk cache (§3, §5).
//!
//! [`FlashCache`] manages a [`nand_flash::FlashDevice`] as a disk cache:
//! a read region and a write region (or one unified pool), out-of-place
//! writes, background garbage collection, wear-level-aware replacement,
//! and the programmable controller's per-page ECC/density
//! reconfiguration. Disk traffic (miss fetches and dirty flushes) is
//! *reported* to the caller rather than simulated here, so the same cache
//! drives both the trace simulator and the full-system model.

use std::collections::VecDeque;

use flash_obs::{Registry, ServiceTier};
use nand_flash::{BlockId, CellMode, FlashDevice, FlashTiming, OpContext, PageAddr};

use crate::admission::FrequencySketch;
use crate::config::{
    AdmissionPolicyConfig, ConfigError, FlashCacheConfig, SplitPolicy, ECC_LATENCY,
    MISS_PENALTY_US, READ_GC_WATERMARK,
};
use crate::error::CacheError;
use crate::reclaim::ReclaimIndex;
use crate::stats::CacheStats;
use crate::tables::{Fbst, Fcht, Fgst, Fpst, RegionKind};

/// What one [`CacheOp`] asks the cache to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOpKind {
    /// Look up (and on a miss, fill) a disk page.
    Read,
    /// Write a disk page out-of-place into the write region.
    Write,
}

/// One typed request against the cache. Build with
/// [`CacheOp::read`]/[`CacheOp::write`] and submit through
/// [`FlashCache::op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOp {
    /// The disk page (logical block address) being accessed.
    pub lba: u64,
    /// Read or write.
    pub kind: CacheOpKind,
}

impl CacheOp {
    /// A foreground read of `lba`.
    pub fn read(lba: u64) -> Self {
        CacheOp {
            lba,
            kind: CacheOpKind::Read,
        }
    }

    /// A foreground write of `lba`.
    pub fn write(lba: u64) -> Self {
        CacheOp {
            lba,
            kind: CacheOpKind::Write,
        }
    }
}

/// What the admission stage decided about one [`CacheOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionDecision {
    /// The op never reached the admission stage (flash read hit, or a
    /// degraded internal-error outcome).
    #[default]
    NotApplicable,
    /// The fill or write was admitted into flash.
    Admitted,
    /// The sketch kept the fill out; the caller serves it from disk.
    Rejected,
}

/// Result of one [`CacheOp`]: the access outcome plus what the
/// admission stage decided.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheOutcome {
    /// The access outcome (hit/tier/latency/disk obligations).
    pub access: AccessOutcome,
    /// The admission stage's decision for this op.
    pub admission: AdmissionDecision,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessOutcome {
    /// The request hit in flash.
    pub hit: bool,
    /// The tier that serviced the access: [`ServiceTier::Flash`] on a
    /// hit, [`ServiceTier::Disk`] when the caller must go to disk.
    pub tier: ServiceTier,
    /// Critical-path latency contributed by flash + ECC, µs. On a miss
    /// this is near zero; the caller adds its disk model's penalty.
    /// Includes `queue_wait_us`.
    pub latency_us: f64,
    /// Device queueing delay inside `latency_us`, µs. Exactly zero
    /// under the closed-form timing backend; under the event-driven
    /// backend it is the time the flash read spent waiting out
    /// in-flight channel traffic.
    pub queue_wait_us: f64,
    /// Off-critical-path flash work this access triggered (fills,
    /// migrations), µs. GC/eviction work is tracked separately in
    /// [`CacheStats::gc_time_us`].
    pub background_us: f64,
    /// The caller must fetch the page from disk.
    pub needs_disk_read: bool,
    /// Dirty pages this access forced out; the caller owes these disk
    /// writes.
    pub flushed_dirty: u32,
    /// The access hit a page whose accumulated bit errors exceeded its
    /// ECC strength — the cached copy was lost.
    pub uncorrectable: bool,
    /// The cache could not allocate space (device worn out); the access
    /// went straight to disk.
    pub bypassed: bool,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenBlock {
    pub(crate) id: BlockId,
    pub(crate) next_slot: u32,
}

/// Allocation state of one region.
#[derive(Debug)]
pub(crate) struct Region {
    pub(crate) free: VecDeque<BlockId>,
    /// The write frontier: one open-block position per lane the region
    /// stripes over (see [`Region::new`]); one position is the paper's
    /// single log head.
    pub(crate) open: Vec<Option<OpenBlock>>,
    /// Round-robin cursor: the frontier position the next slot comes from.
    pub(crate) cursor: usize,
    /// Block reserved as the GC compaction destination.
    pub(crate) spare: Option<BlockId>,
    /// Live pages across the region (for the GC watermark).
    pub(crate) valid_pages: u64,
    /// Invalidated-but-not-erased pages across the region.
    pub(crate) invalid_pages: u64,
}

impl Region {
    /// An empty region of `blocks` blocks on a device with `lanes` lanes.
    /// The frontier is as wide as the device has lanes, capped so that
    /// open blocks never pin more than an eighth of the region.
    fn new(blocks: u32, lanes: usize) -> Self {
        let width = lanes.min((blocks as usize / 8).max(1));
        Region {
            free: VecDeque::new(),
            open: vec![None; width],
            cursor: 0,
            spare: None,
            valid_pages: 0,
            invalid_pages: 0,
        }
    }
}

/// The hardware-assisted, software-managed flash disk cache.
///
/// # Examples
///
/// ```
/// use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig};
///
/// let mut cache = FlashCache::new(FlashCacheConfig::default()).unwrap();
/// let first = cache.op(CacheOp::read(42));
/// assert!(!first.access.hit && first.access.needs_disk_read);
/// let second = cache.op(CacheOp::read(42));
/// assert!(second.access.hit);
/// ```
#[derive(Debug)]
pub struct FlashCache {
    pub(crate) config: FlashCacheConfig,
    pub(crate) device: FlashDevice,
    pub(crate) fcht: Fcht,
    pub(crate) fpst: Fpst,
    pub(crate) fbst: Fbst,
    pub(crate) fgst: Fgst,
    /// Incremental victim-selection index over the FBST (GC, eviction,
    /// wear levelling), kept in lock-step by [`FlashCache::reclaim_sync`].
    pub(crate) reclaim: ReclaimIndex,
    /// ECC strength the *current content* of each slot was encoded with
    /// (configured strength applies from the next program, §5.2).
    pub(crate) live_strength: Vec<u8>,
    pub(crate) read_region: Region,
    pub(crate) write_region: Region,
    pub(crate) unified: bool,
    /// Logical clock for LRU.
    pub(crate) tick: u64,
    /// Ops until the next halving of the access counters (§5.2.2), one
    /// device's worth of slots apart; a countdown avoids a `tick %
    /// slots` division on every access.
    pub(crate) decay_countdown: u64,
    /// Usable (non-retired) slots.
    pub(crate) usable_slots: u64,
    /// Per-operation accumulators, reset at the start of each access.
    pub(crate) op_flushed: u32,
    pub(crate) op_background_us: f64,
    /// The frequency sketch gating read-miss fills; `None` under
    /// [`AdmissionPolicyConfig::AdmitAll`], the paper's rule.
    pub(crate) admission: Option<FrequencySketch>,
    pub(crate) stats: CacheStats,
}

impl FlashCache {
    /// Builds the cache, partitioning the device's blocks between the
    /// read and write regions per the split policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: FlashCacheConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let device = FlashDevice::new(config.flash);
        let geometry = *device.geometry();
        let blocks = geometry.blocks;
        let write_blocks = match config.split {
            SplitPolicy::Unified => 0,
            SplitPolicy::Split { write_fraction } => {
                ((blocks as f64 * write_fraction).round() as u32).clamp(2, blocks - 2)
            }
        };
        let unified = matches!(config.split, SplitPolicy::Unified);
        // Write region takes the tail block ids.
        let first_write = blocks - write_blocks;
        let initial_strength = config.controller.initial_strength();
        let fbst = Fbst::new(blocks, geometry.slots_per_block(), initial_strength, |b| {
            if !unified && b.0 >= first_write {
                RegionKind::Write
            } else {
                RegionKind::Read
            }
        });
        let fpst = Fpst::new(geometry, initial_strength);
        let lanes = device.lanes();
        let mut read_region = Region::new(first_write, lanes);
        let mut write_region = Region::new(write_blocks, lanes);
        for b in 0..first_write {
            read_region.free.push_back(BlockId(b));
        }
        for b in first_write..blocks {
            write_region.free.push_back(BlockId(b));
        }
        // Reserve one spare per active region for GC compaction.
        read_region.spare = read_region.free.pop_back();
        if !unified {
            write_region.spare = write_region.free.pop_back();
        }
        let usable_slots = geometry.total_slots();
        // One mapping per slot at most: sized so lookups never rehash.
        let fcht = Fcht::with_capacity(usable_slots as usize);
        Ok(FlashCache {
            live_strength: vec![initial_strength; usable_slots as usize],
            device,
            fcht,
            fpst,
            fbst,
            fgst: Fgst::default(),
            reclaim: ReclaimIndex::new(blocks, geometry.slots_per_block()),
            read_region,
            write_region,
            unified,
            tick: 0,
            decay_countdown: usable_slots.max(1),
            usable_slots,
            op_flushed: 0,
            op_background_us: 0.0,
            admission: match config.admission {
                AdmissionPolicyConfig::AdmitAll => None,
                AdmissionPolicyConfig::ReReference => Some(FrequencySketch::new(usable_slots)),
            },
            stats: CacheStats::default(),
            config,
        })
    }

    /// Exports the cache's counters and gauges as a metrics registry
    /// under the `flash.*` (cache) and `nand.*` (device) prefixes.
    ///
    /// Time/energy accumulators are exported as integer-µs/µJ counters
    /// so that registries from successive caches merge additively.
    pub fn export_metrics(&self) -> Registry {
        let mut reg = Registry::new();
        let s = &self.stats;
        let c: &[(&str, u64)] = &[
            ("flash.reads", s.reads),
            ("flash.read_hits", s.read_hits),
            ("flash.read_misses", s.reads - s.read_hits),
            ("flash.writes", s.writes),
            ("flash.write_hits", s.write_hits),
            ("flash.flash_reads", s.flash_reads),
            ("flash.flash_programs", s.flash_programs),
            ("flash.erases", s.erases),
            ("flash.gc_runs", s.gc_runs),
            ("flash.gc_moved_pages", s.gc_moved_pages),
            ("flash.gc_dropped_pages", s.gc_dropped_pages),
            ("flash.evictions", s.evictions),
            ("flash.flushed_dirty_pages", s.flushed_dirty_pages),
            ("flash.wear_migrations", s.wear_migrations),
            ("flash.reconfig_ecc", s.reconfig_ecc),
            ("flash.reconfig_density", s.reconfig_density),
            ("flash.hot_promotions", s.hot_promotions),
            ("flash.uncorrectable_reads", s.uncorrectable_reads),
            ("flash.internal_errors", s.internal_errors),
            ("flash.retired_blocks", s.retired_blocks),
            ("flash.gc_time_us", s.gc_time_us.round() as u64),
            ("flash.foreground_us", s.foreground_us.round() as u64),
            ("flash.background_us", s.background_us.round() as u64),
            ("flash.ecc_us", s.ecc_us.round() as u64),
            ("flash.reclaim.index_queries", s.reclaim_index_queries),
            ("flash.reclaim.index_hits", s.reclaim_index_hits),
            ("flash.reclaim.index_skips", self.reclaim.skips()),
            ("flash.admission.rejected_fills", s.admission_rejected_fills),
            (
                "flash.admission.sketch_halvings",
                s.admission_sketch_halvings,
            ),
            ("flash.fcht.probe_groups", self.fcht.probe_groups()),
        ];
        for (name, v) in c {
            reg.counter_add(name, *v);
        }
        let d = self.device.stats();
        let n: &[(&str, u64)] = &[
            ("nand.reads", d.reads),
            ("nand.programs", d.programs),
            ("nand.erases", d.erases),
            ("nand.bit_errors", d.bit_errors),
            ("nand.busy_us", d.busy_us.round() as u64),
            ("nand.wait_us", d.wait_us.round() as u64),
            ("nand.energy_uj", (d.energy_mj * 1000.0).round() as u64),
        ];
        for (name, v) in n {
            reg.counter_add(name, *v);
        }
        reg.gauge_set("flash.cached_pages", self.cached_pages() as f64);
        reg.gauge_set("flash.usable_slots", self.usable_slots as f64);
        reg.gauge_set("flash.slc_fraction", self.slc_fraction());
        reg.gauge_set("flash.miss_rate", self.fgst.miss_rate);
        reg.gauge_set("flash.admission.bar", self.admission_bar() as f64);
        // Longest probe is a high-water mark, not additive: exported as
        // a gauge, which `ShardedCache` takes as the max over shards
        // rather than a meaningless sum.
        reg.gauge_set("flash.fcht.max_probe_len", self.fcht.max_probe_len() as f64);
        reg
    }

    /// The active configuration.
    pub fn config(&self) -> &FlashCacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears statistics (cache contents and wear are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.device.reset_stats();
    }

    /// The underlying device (for power/wear inspection).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Mutable access to the underlying device (for its end-of-run
    /// makespan: the max over its per-channel and per-plane free times).
    pub fn device_mut(&mut self) -> &mut FlashDevice {
        &mut self.device
    }

    /// Global status table snapshot.
    pub fn fgst(&self) -> Fgst {
        self.fgst
    }

    /// Logical access clock.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of cached disk pages.
    pub fn cached_pages(&self) -> u64 {
        self.fcht.len() as u64
    }

    /// `true` if `disk_page` is currently cached.
    pub fn contains(&self, disk_page: u64) -> bool {
        self.fcht.lookup(disk_page).is_some()
    }

    /// The read count a read-miss fill has to exceed (0: none, or not yet).
    pub fn admission_bar(&self) -> u8 {
        self.admission.as_ref().map_or(0, FrequencySketch::bar)
    }

    /// Usable (non-retired) slot count.
    pub fn usable_slots(&self) -> u64 {
        self.usable_slots
    }

    /// `true` once every block has been retired — the paper's "point of
    /// total Flash failure" (Figure 12).
    pub fn is_dead(&self) -> bool {
        self.usable_slots == 0
    }

    /// Fraction of non-retired physical pages currently configured in
    /// SLC mode (the quantity optimized in Figure 7).
    pub fn slc_fraction(&self) -> f64 {
        let mut slc = 0u64;
        let mut total = 0u64;
        for (_, s) in self.fbst.iter() {
            if s.retired {
                continue;
            }
            slc += s.slc_pages as u64;
            total += self.device.geometry().pages_per_block as u64;
        }
        if total == 0 {
            0.0
        } else {
            slc as f64 / total as f64
        }
    }

    /// Number of invalidated-but-not-yet-erased pages in `block`
    /// (Figure 3's GC-candidate criterion).
    pub fn block_invalid_pages(&self, block: nand_flash::BlockId) -> u32 {
        self.fbst.get(block).invalid_pages
    }

    /// The region `block` currently serves.
    pub fn block_region(&self, block: nand_flash::BlockId) -> RegionKind {
        self.fbst.get(block).region
    }

    /// Erase-count spread `(min, max, mean)` over non-retired blocks —
    /// the wear-levelling quality metric used by the ablation benches.
    pub fn erase_spread(&self) -> (u64, u64, f64) {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        let mut n = 0u64;
        for b in self.device.geometry().iter_blocks() {
            if self.fbst.get(b).retired {
                continue;
            }
            let e = self.device.erase_count(b);
            min = min.min(e);
            max = max.max(e);
            sum += e;
            n += 1;
        }
        if n == 0 {
            (0, 0, 0.0)
        } else {
            (min, max, sum as f64 / n as f64)
        }
    }

    pub(crate) fn gidx(&self, addr: PageAddr) -> usize {
        addr.block.0 as usize * self.device.geometry().slots_per_block() as usize
            + addr.slot as usize
    }

    fn region_kind_of(&self, addr: PageAddr) -> RegionKind {
        self.fbst.get(addr.block).region
    }

    /// The region `kind` is stored in: unified mode folds every kind onto
    /// the read region.
    pub(crate) fn storage_kind(&self, kind: RegionKind) -> RegionKind {
        if self.unified {
            RegionKind::Read
        } else {
            kind
        }
    }

    pub(crate) fn region_mut(&mut self, kind: RegionKind) -> &mut Region {
        match self.storage_kind(kind) {
            RegionKind::Read => &mut self.read_region,
            RegionKind::Write => &mut self.write_region,
        }
    }

    pub(crate) fn region(&self, kind: RegionKind) -> &Region {
        match self.storage_kind(kind) {
            RegionKind::Read => &self.read_region,
            RegionKind::Write => &self.write_region,
        }
    }

    /// Reconciles the reclaim index with `b`'s FBST state. Call after
    /// any change to the block's valid/invalid counts, retirement, or a
    /// wear-cost component (`erase_count`/`total_ecc`/`slc_pages`).
    pub(crate) fn reclaim_sync(&mut self, b: BlockId) {
        let s = *self.fbst.get(b);
        let cost = self.fbst.wear_out(b);
        self.reclaim
            .sync(b, s.region, s.valid_pages, s.invalid_pages, s.retired, cost);
    }

    /// Marks `b` most recently used in the reclaim index's block LRU.
    /// Call wherever the FBST's `last_access` is stamped.
    pub(crate) fn reclaim_touch(&mut self, b: BlockId) {
        self.reclaim.touch(b);
    }

    fn begin_op(&mut self) {
        self.tick += 1;
        self.op_flushed = 0;
        self.op_background_us = 0.0;
        self.decay_countdown -= 1;
        if self.decay_countdown == 0 {
            self.decay_countdown = self.device.geometry().total_slots().max(1);
            // O(1): pages fold the pending halving lazily on next touch.
            self.fpst.advance_decay_epoch();
        }
    }

    fn finish(&mut self, mut outcome: AccessOutcome) -> AccessOutcome {
        outcome.flushed_dirty = self.op_flushed;
        outcome.background_us = self.op_background_us;
        self.stats.foreground_us += outcome.latency_us;
        self.stats.background_us += outcome.background_us;
        outcome
    }

    /// Services `op` through the unified pipeline (§5.1 read/write
    /// paths with the admission stage in front).
    ///
    /// Never fails: when a management table and the device disagree or
    /// a device operation fails mid-access, the cache aborts the access
    /// at the failure point, counts it in [`CacheStats::internal_errors`]
    /// and returns a bypassed, disk-bound outcome (with `uncorrectable`
    /// set when the cached copy was lost). The caller then satisfies the
    /// request from disk (reads) or writes the dirty data to disk itself
    /// (writes).
    pub fn op(&mut self, op: CacheOp) -> CacheOutcome {
        let result = match op.kind {
            CacheOpKind::Read => self.op_read(op),
            CacheOpKind::Write => self.op_write(op),
        };
        result.unwrap_or_else(|e| {
            self.stats.internal_errors += 1;
            CacheOutcome {
                access: AccessOutcome {
                    hit: false,
                    tier: ServiceTier::Disk,
                    needs_disk_read: op.kind == CacheOpKind::Read,
                    uncorrectable: e.is_corruption(),
                    bypassed: true,
                    ..AccessOutcome::default()
                },
                admission: AdmissionDecision::NotApplicable,
            }
        })
    }

    /// Services a batch of ops, returning one outcome per op in order.
    ///
    /// Semantically this is exactly `ops.iter().map(|&op| self.op(op))`:
    /// ops execute sequentially in their original order, so outcomes,
    /// snapshots, stats, and exported metrics are byte-identical to the
    /// scalar loop for every batch size. What the batch adds is a
    /// software-pipelined *lookup front*: while op `j` executes, the
    /// FCHT lines of op `j + K` (and a read's sketch word) are
    /// prefetched (a pure hint — see DESIGN.md), overlapping the LLC
    /// misses of independent requests.
    ///
    /// # Examples
    ///
    /// ```
    /// use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig};
    ///
    /// let mut cache = FlashCache::new(FlashCacheConfig::default()).unwrap();
    /// let ops = [CacheOp::write(7), CacheOp::read(7), CacheOp::read(9)];
    /// let outs = cache.op_batch(&ops);
    /// assert_eq!(outs.len(), 3);
    /// assert!(outs[1].access.hit); // the write cached page 7
    /// ```
    pub fn op_batch(&mut self, ops: &[CacheOp]) -> Vec<CacheOutcome> {
        let mut out = Vec::with_capacity(ops.len());
        self.op_batch_into(ops, &mut out);
        out
    }

    /// [`FlashCache::op_batch`] into a caller-owned buffer (appended;
    /// not cleared), so hot loops can reuse one allocation.
    pub fn op_batch_into(&mut self, ops: &[CacheOp], out: &mut Vec<CacheOutcome>) {
        out.reserve(ops.len());
        // Pipeline window: far enough ahead to cover an LLC miss at
        // replay op rates, small enough that the prefetched lines are
        // still resident when their op executes. Swept 4/8/16/32 on the
        // replay benchmark; 4 was fastest and larger windows only evict
        // their own prefetches.
        const WINDOW: usize = 4;
        for (j, &op) in ops.iter().enumerate() {
            // Op `j + WINDOW`'s first lines (the first op: ops 0 to
            // `WINDOW`'s): its FCHT probe and a read's sketch word.
            let first = if j == 0 { 0 } else { j + WINDOW };
            for ahead in ops.iter().take(j + WINDOW + 1).skip(first) {
                self.fcht.prefetch(ahead.lba);
                if let (CacheOpKind::Read, Some(sketch)) = (ahead.kind, &self.admission) {
                    sketch.prefetch(ahead.lba);
                }
            }
            out.push(self.op(op));
        }
    }

    /// §5.1 read path with the admission gate on the fill.
    fn op_read(&mut self, op: CacheOp) -> Result<CacheOutcome, CacheError> {
        let disk_page = op.lba;
        self.begin_op();
        self.stats.reads += 1;
        // Before the probe: the sketch's line loads alongside the FCHT's.
        if let Some(sketch) = &mut self.admission {
            self.stats.admission_sketch_halvings += sketch.count_read(disk_page) as u64;
        }
        // What an uncorrectable hit spent on the lost copy: latency, wait.
        let mut lost = None;
        if let Some(addr) = self.fcht.lookup(disk_page) {
            let live_t = self.live_strength[self.gidx(addr)];
            let out = self
                .device
                .read_page_with(addr, OpContext::foreground())
                .map_err(|source| CacheError::TableCorruption { addr, source })?;
            self.stats.flash_reads += 1;
            self.fbst.get_mut(addr.block).last_access = self.tick;
            self.reclaim_touch(addr.block);
            let ecc_us = ECC_LATENCY.decode_us(live_t as usize);
            self.stats.ecc_us += ecc_us;
            // Adding the wait term last keeps the closed-form sum
            // bit-identical (wait is exactly 0.0 there).
            let latency = out.latency_us + ecc_us + out.wait_us;
            if out.raw_bit_errors > live_t as u32 {
                // Cached copy lost: detected by CRC after failed BCH.
                self.raise_lost_copy();
                self.respond_to_errors(addr, out.raw_bit_errors);
                self.drop_valid_page(addr, false);
                // Refill from disk below (fall through to the miss path).
                lost = Some((latency, out.wait_us));
            } else {
                // §5.2.1: react only to errors that fail *consistently* —
                // two consecutive reads at the strength boundary — so a
                // transient soft error cannot cause a permanent
                // reconfiguration.
                if out.raw_bit_errors >= self.fpst.get(addr).ecc_strength as u32 {
                    let streak = {
                        let st = self.fpst.get_mut(addr);
                        st.error_streak = st.error_streak.saturating_add(1);
                        st.error_streak
                    };
                    if streak >= 2 {
                        self.fpst.get_mut(addr).error_streak = 0;
                        self.respond_to_errors(addr, out.raw_bit_errors);
                    }
                } else {
                    self.fpst.get_mut(addr).error_streak = 0;
                }
                let count = self.fpst.bump_access(addr);
                self.maybe_promote_hot(addr, count)?;
                self.stats.read_hits += 1;
                self.fgst.record(true, latency);
                let access = self.finish(AccessOutcome {
                    hit: true,
                    tier: ServiceTier::Flash,
                    latency_us: latency,
                    queue_wait_us: out.wait_us,
                    ..AccessOutcome::default()
                });
                return Ok(CacheOutcome {
                    access,
                    admission: AdmissionDecision::NotApplicable,
                });
            }
        }
        // Miss: fetch from disk, fill the read cache.
        self.fgst.record(false, 0.0);
        let (filled, admission) = self.admitted_fill(disk_page)?;
        let (latency_us, queue_wait_us) = lost.unwrap_or_default();
        let access = self.finish(AccessOutcome {
            latency_us,
            queue_wait_us,
            needs_disk_read: true,
            uncorrectable: lost.is_some(),
            bypassed: !filled,
            ..AccessOutcome::default()
        });
        Ok(CacheOutcome { access, admission })
    }

    /// Runs the admission gate in front of a read-miss fill into the read
    /// region. Returns whether a copy was cached (an admitted page is not
    /// if the worn-out device has no space) and the decision taken.
    fn admitted_fill(&mut self, disk_page: u64) -> Result<(bool, AdmissionDecision), CacheError> {
        let sketch = self.admission.as_ref();
        if sketch.is_some_and(|s| !s.admit_fill(disk_page)) {
            self.stats.admission_rejected_fills += 1;
            return Ok((false, AdmissionDecision::Rejected));
        }
        let slot = self.allocate_slot(RegionKind::Read, false)?;
        if let Some(addr) = slot {
            self.op_background_us += self.program_slot(addr, disk_page, false, 0)?;
        }
        Ok((slot.is_some(), AdmissionDecision::Admitted))
    }

    /// §5.1 write path — always an out-of-place write into the write
    /// region; host writes are never gated.
    fn op_write(&mut self, op: CacheOp) -> Result<CacheOutcome, CacheError> {
        let disk_page = op.lba;
        self.begin_op();
        self.stats.writes += 1;
        let mut hit = false;
        if let Some(addr) = self.fcht.lookup(disk_page) {
            hit = true;
            self.stats.write_hits += 1;
            // Invalidate the stale copy (read- or write-region alike);
            // the new data supersedes it, so no flush is owed.
            self.drop_valid_page(addr, false);
        }
        let slot = self.allocate_slot(self.storage_kind(RegionKind::Write), false)?;
        if let Some(addr) = slot {
            self.op_background_us += self.program_slot(addr, disk_page, true, 0)?;
        }
        let programmed = slot.is_some();
        self.fgst.record(hit, 0.0);
        self.maybe_background_read_gc()?;
        let access = self.finish(AccessOutcome {
            hit,
            tier: if programmed {
                ServiceTier::Flash
            } else {
                ServiceTier::Disk
            },
            bypassed: !programmed,
            ..AccessOutcome::default()
        });
        Ok(CacheOutcome {
            access,
            admission: AdmissionDecision::Admitted,
        })
    }

    /// Marks every dirty page clean and returns how many disk writes the
    /// caller owes — the periodic write-back flush of §5.1.
    pub fn flush_writes(&mut self) -> u64 {
        let mut flushed = 0;
        for b in self.device.geometry().iter_blocks() {
            if self.fbst.get(b).retired {
                continue;
            }
            for slot in 0..self.device.geometry().slots_per_block() {
                let addr = PageAddr::new(b, slot);
                let st = self.fpst.get_mut(addr);
                if st.valid && st.dirty {
                    st.dirty = false;
                    flushed += 1;
                }
            }
        }
        self.stats.flushed_dirty_pages += flushed;
        flushed
    }

    /// Programs `addr` with the slot's configured mode/strength and
    /// installs the FCHT mapping. Returns the program + encode latency.
    pub(crate) fn program_slot(
        &mut self,
        addr: PageAddr,
        disk_page: u64,
        dirty: bool,
        access: u8,
    ) -> Result<f64, CacheError> {
        let even = PageAddr::new(addr.block, addr.slot & !1);
        let mode = if addr.is_upper_half() {
            CellMode::Mlc
        } else {
            self.fpst.get(even).mode
        };
        let strength = self.fpst.get(addr).ecc_strength;
        let out = self
            .device
            .program_page_with(addr, mode, None, OpContext::background())
            .map_err(|source| CacheError::ProgramRejected { addr, source })?;
        self.stats.flash_programs += 1;
        let gi = self.gidx(addr);
        self.live_strength[gi] = strength;
        let region = self.region_kind_of(addr);
        {
            let st = self.fpst.get_mut(addr);
            st.valid = true;
            st.dirty = dirty;
            st.error_streak = 0;
        }
        self.fpst.set_disk_page(addr, disk_page);
        self.fpst.set_access_count(addr, access);
        let bs = self.fbst.get_mut(addr.block);
        bs.valid_pages += 1;
        bs.last_access = self.tick;
        self.region_mut(region).valid_pages += 1;
        self.fcht.insert(disk_page, addr);
        self.reclaim_sync(addr.block);
        self.reclaim_touch(addr.block);
        Ok(out.latency_us + ECC_LATENCY.encode_us(strength as usize))
    }

    /// Unmaps a live page: clears its valid and dirty bits and its reverse
    /// map, and moves its block's and region's count from valid to
    /// invalid. Returns the disk page it held; the FCHT entry is the
    /// caller's to remove, or to re-point in place by programming a copy.
    pub(crate) fn unmap_page(&mut self, addr: PageAddr) -> Option<u64> {
        let st = self.fpst.get_mut(addr);
        st.valid = false;
        st.dirty = false;
        let disk_page = self.fpst.take_disk_page(addr);
        let region = self.region_kind_of(addr);
        let bs = self.fbst.get_mut(addr.block);
        bs.valid_pages -= 1;
        bs.invalid_pages += 1;
        let r = self.region_mut(region);
        r.valid_pages -= 1;
        r.invalid_pages += 1;
        self.reclaim_sync(addr.block);
        disk_page
    }

    /// Drops a live page, flushing it to disk first if it was dirty
    /// (`flush` is false when the content is superseded or lost).
    pub(crate) fn drop_valid_page(&mut self, addr: PageAddr, flush: bool) {
        let st = *self.fpst.get(addr);
        if !st.valid {
            return;
        }
        if let Some(dp) = self.unmap_page(addr) {
            self.fcht.remove(dp);
        }
        self.report_flush(st.dirty && flush);
    }

    /// Counts a page that left flash: if `dirty`, the op owes a disk write.
    fn report_flush(&mut self, dirty: bool) {
        self.op_flushed += dirty as u32;
        self.stats.flushed_dirty_pages += dirty as u64;
    }

    /// Counts a lost copy: a page read back with more raw bit errors than
    /// its live ECC strength corrects.
    pub(crate) fn raise_lost_copy(&mut self) {
        self.stats.uncorrectable_reads += 1;
    }

    /// §5.2.2: a saturated read counter promotes a hot MLC page to SLC.
    fn maybe_promote_hot(&mut self, addr: PageAddr, count: u8) -> Result<(), CacheError> {
        if count != self.config.hot_threshold {
            return Ok(());
        }
        if !self.config.controller.switches_density() {
            return Ok(());
        }
        let Some(phys_mode) = self.device.physical_mode(addr) else {
            // A hit page must be programmed; the device disagreeing with
            // the FPST is table corruption.
            return Err(CacheError::TableCorruption {
                addr,
                source: nand_flash::FlashOpError::NotProgrammed(addr),
            });
        };
        if phys_mode != CellMode::Mlc {
            return Ok(());
        }
        let kind = self.region_kind_of(addr);
        let dirty = self.fpst.get(addr).dirty;
        // Unmap *before* allocating: allocation may run GC, which must not
        // move this page, and may fail, which must leave no stale mapping.
        let disk_page = self
            .unmap_page(addr)
            .ok_or(CacheError::MappingMissing { addr })?;
        self.fcht.remove(disk_page);
        let Some(dst) = self.allocate_slot(kind, true)? else {
            // Promotion failed for lack of space; the page falls out of
            // the cache (its content was just served, and a dirty copy
            // still owes a disk write).
            self.report_flush(dirty);
            return Ok(());
        };
        // Migrate: the page was just read; program the copy in SLC mode.
        let lat = self.program_slot(dst, disk_page, dirty, self.config.hot_threshold)?;
        self.op_background_us += lat;
        self.stats.hot_promotions += 1;
        self.stats.reconfig_density += 1;
        Ok(())
    }

    /// §5.2.1: reacts to a page whose observed errors reached its
    /// configured strength — raise ECC or demote density, whichever the
    /// Δtcs/Δtd heuristic prefers.
    pub(crate) fn respond_to_errors(&mut self, addr: PageAddr, errors: u32) {
        let cfg_t = self.fpst.get(addr).ecc_strength;
        let even = PageAddr::new(addr.block, addr.slot & !1);
        let phys_mode = self.fpst.get(even).mode;
        let policy = self.config.controller;
        let max_t = policy.max_strength();
        let ecc_possible = cfg_t < max_t;
        let slc_possible = policy.switches_density() && phys_mode == CellMode::Mlc;
        let choose_ecc = match (ecc_possible, slc_possible) {
            (false, false) => return,
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                let freq = (self.fpst.access_count(addr) as f64 / self.config.hot_threshold as f64)
                    .min(1.0);
                let d_code = ECC_LATENCY.decode_us(cfg_t as usize + 1)
                    - ECC_LATENCY.decode_us(cfg_t as usize);
                let d_tcs = freq * d_code;
                let d_slc = FlashTiming::SLC_READ_US - FlashTiming::MLC_READ_US;
                let d_miss = if self.usable_slots == 0 {
                    0.0
                } else {
                    self.fgst.miss_rate / self.usable_slots as f64
                };
                let t_hit = self.fgst.avg_hit_latency_us;
                let d_td = d_miss * (MISS_PENALTY_US + t_hit) + freq * d_slc;
                d_tcs <= d_td
            }
        };
        if choose_ecc {
            let new_t = u8::try_from(errors)
                .unwrap_or(u8::MAX)
                .saturating_add(1)
                .max(cfg_t + 1)
                .min(max_t);
            let delta = (new_t - cfg_t) as u32;
            self.fpst.get_mut(addr).ecc_strength = new_t;
            self.fbst.get_mut(addr.block).total_ecc += delta;
            self.reclaim_sync(addr.block);
            self.stats.reconfig_ecc += 1;
        } else {
            // Demote the physical page to SLC at its next program.
            self.fpst.get_mut(even).mode = CellMode::Slc;
            self.fpst.get_mut(even.sibling()).mode = CellMode::Slc;
            self.fbst.get_mut(addr.block).slc_pages += 1;
            self.reclaim_sync(addr.block);
            self.stats.reconfig_density += 1;
        }
    }

    /// Background read-region GC when invalid pages push valid capacity
    /// below the watermark (§5.1).
    fn maybe_background_read_gc(&mut self) -> Result<(), CacheError> {
        // Unified mode: host writes land in the read region itself.
        if self.storage_kind(RegionKind::Write) == RegionKind::Read {
            return Ok(());
        }
        let r = self.region(RegionKind::Read);
        let occupied = r.valid_pages + r.invalid_pages;
        if occupied == 0 {
            return Ok(());
        }
        let valid_frac = r.valid_pages as f64 / occupied as f64;
        if valid_frac < READ_GC_WATERMARK {
            self.collect_garbage(RegionKind::Read)?;
        }
        Ok(())
    }
}
