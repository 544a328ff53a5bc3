//! The software management tables of the flash disk cache (§3):
//! FCHT, FPST, FBST and FGST. In the paper these live in DRAM and are
//! consulted by OS code; their total overhead is under 2% of flash size.

use std::cell::Cell;

use nand_flash::{BlockId, CellMode, FlashGeometry, PageAddr};

use crate::config::{WEAR_K1, WEAR_K2};

/// Which cache region a block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Read disk cache (evicts on read misses only).
    Read,
    /// Write disk cache (absorbs out-of-place writes).
    Write,
}

/// Control byte marking a vacant [`Fcht`] bucket. Occupied buckets
/// store a 7-bit hash fragment (high bit clear), so the two cases never
/// collide.
const CTRL_EMPTY: u8 = 0x80;

/// Control bytes probed per SWAR group load.
const GROUP: usize = 8;

/// `0x01` broadcast to every byte lane.
const LSB: u64 = 0x0101_0101_0101_0101;

/// `0x80` broadcast to every byte lane. Because [`CTRL_EMPTY`] is the
/// only control value with the high bit set, `word & MSB` detects empty
/// buckets *exactly* — no verification needed.
const MSB: u64 = 0x8080_8080_8080_8080;

/// Where a probe for a key terminated.
#[derive(Debug, PartialEq, Eq)]
enum Probe {
    /// The key is resident at this bucket.
    Found(usize),
    /// The key is absent; this is the first empty bucket of its chain
    /// (where an insert would place it).
    Vacant(usize),
}

/// FlashCache hash table: disk page → flash page mapping.
///
/// The paper implements this as a hashed fully-associative tag store
/// (~100 hash entries suffice for throughput, §3.1); the lookup-cost
/// question is moot for a software reproduction, so any fully
/// associative map gives the same semantics. This one is tuned for the
/// replay hot path, where the table far outgrows L2 and every probe is
/// a DRAM access. The layout is struct-of-arrays: a byte-per-bucket
/// control array (vacancy + a 7-bit hash fragment — 64 buckets per
/// cache line), a key array, and a packed-location array. A probe
/// streams the control bytes only; the 8-byte key is touched just on a
/// fragment match (1/128 false-positive rate) and the location only on
/// a true hit — instead of striding 16-byte AoS entries through the
/// LLC. Fibonacci hashing on the high product bits, linear probing,
/// and backward-shift deletion instead of tombstones keep churn from
/// degrading probe lengths.
///
/// Probing is SWAR: eight control bytes are loaded per `u64`, and tag
/// candidates and empties are found with bitwise tricks. Candidate
/// buckets are visited in ascending probe order, exactly as a
/// byte-at-a-time walk would — the in-crate tests pin every probe
/// against that walk.
#[derive(Debug)]
pub struct Fcht {
    /// Per-bucket control byte: [`CTRL_EMPTY`] or the hash fragment.
    ctrl: Vec<u8>,
    /// Per-bucket key (disk page number); meaningful only when the
    /// bucket's control byte is occupied.
    keys: Vec<u64>,
    /// Per-bucket packed flash location: `block << 32 | slot`.
    locs: Vec<u64>,
    /// `64 - log2(buckets)`: maps a 64-bit hash to a bucket.
    shift: u32,
    len: usize,
    /// Packed probe statistics (`Cell`: lookups are `&self`), updated
    /// with a single load/store per probe to keep the counters off the
    /// hot path's critical cost. Bits 16.. count 8-byte control groups
    /// touched by probes; bits ..16 hold the longest probe observed in
    /// buckets (saturating at `u16::MAX`).
    probe_stats: Cell<u64>,
}

impl Default for Fcht {
    fn default() -> Self {
        Fcht::new()
    }
}

/// Multiplicative hash constant (2^64 / golden ratio, forced odd) —
/// the same one [`nand_flash::fxhash::FxHasher`] uses.
const FCHT_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Fcht {
    /// Creates an empty table.
    pub fn new() -> Self {
        Fcht::with_capacity(0)
    }

    /// Creates an empty table pre-sized for `capacity` mappings. The
    /// table holds at most one entry per flash slot, so sizing it from
    /// the device geometry means the lookup hot path never rehashes.
    pub fn with_capacity(capacity: usize) -> Self {
        // Keep the load factor at or below 7/8 once `capacity` entries
        // are resident.
        let buckets = (capacity.saturating_mul(8) / 7 + 1)
            .next_power_of_two()
            .max(8);
        Fcht {
            ctrl: vec![CTRL_EMPTY; buckets],
            keys: vec![0; buckets],
            locs: vec![0; buckets],
            shift: 64 - buckets.trailing_zeros(),
            len: 0,
            probe_stats: Cell::new(0),
        }
    }

    /// Lifetime count of 8-byte control groups touched by probes.
    pub fn probe_groups(&self) -> u64 {
        self.probe_stats.get() >> 16
    }

    /// Longest probe observed so far, in buckets from the home bucket
    /// to the terminating bucket, inclusive (saturating at
    /// `u16::MAX` — far beyond any survivable probe length).
    pub fn max_probe_len(&self) -> u64 {
        self.probe_stats.get() & 0xFFFF
    }

    /// Number of cached disk pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no disk pages are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The multiplicative hash all probe addressing derives from.
    #[inline]
    pub(crate) fn hash(key: u64) -> u64 {
        key.wrapping_mul(FCHT_SEED)
    }

    /// 7-bit control fragment: middle product bits, disjoint from the
    /// home-bucket bits for any realistic table size (< 2^25 buckets).
    #[inline]
    fn frag(h: u64) -> u8 {
        ((h >> 32) as u8) & 0x7F
    }

    /// Home bucket: high bits of the multiplicative hash, which is
    /// where the multiply concentrates the mixing.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (Self::hash(key) >> self.shift) as usize
    }

    /// Packs a flash location into one `locs` word.
    #[inline]
    fn pack(addr: PageAddr) -> u64 {
        (addr.block.0 as u64) << 32 | addr.slot as u64
    }

    /// Unpacks a `locs` word.
    #[inline]
    fn unpack(loc: u64) -> PageAddr {
        PageAddr::new(BlockId((loc >> 32) as u32), loc as u32)
    }

    /// Credits one finished probe that ended at bucket `i` after
    /// starting at `home`. Both counters derive O(1) from those two
    /// positions — the walk is contiguous (mod table size), so
    /// `aligned-group span` = groups touched and `bucket span` = probe
    /// length — keeping the probe loop instrumentation-free.
    #[inline]
    fn note_probe(&self, home: usize, i: usize) {
        let mask = self.ctrl.len() - 1;
        let groups = ((i / GROUP).wrapping_sub(home / GROUP) & (mask / GROUP)) as u64 + 1;
        let len = ((i.wrapping_sub(home) & mask) as u64 + 1).min(0xFFFF);
        // Branchless single read-modify-write of the packed word.
        let st = self.probe_stats.get();
        self.probe_stats
            .set(((st + (groups << 16)) & !0xFFFF) | len.max(st & 0xFFFF));
    }

    /// Loads aligned control group `g` as a little-endian word: byte
    /// lane `k` holds bucket `g * GROUP + k`, so `trailing_zeros / 8`
    /// walks candidate buckets in ascending probe order.
    #[inline]
    fn load_group(&self, g: usize) -> u64 {
        u64::from_le_bytes(self.ctrl[g * GROUP..(g + 1) * GROUP].try_into().unwrap())
    }

    /// Byte-at-a-time probe: the lock-step reference for
    /// [`Fcht::probe`] (same terminating bucket for every key in every
    /// table state; counters derive from that bucket alone).
    #[cfg(test)]
    fn probe_bytewise(&self, disk_page: u64) -> Probe {
        let mask = self.ctrl.len() - 1;
        let h = Self::hash(disk_page);
        let mut i = (h >> self.shift) as usize;
        loop {
            let c = self.ctrl[i];
            if c == CTRL_EMPTY {
                return Probe::Vacant(i);
            }
            if c == Self::frag(h) && self.keys[i] == disk_page {
                return Probe::Found(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Probes for `disk_page`, loading eight control bytes per `u64`
    /// (terminates because the load factor never reaches 1 — inserts
    /// grow at 7/8). Empties
    /// are exact (`word & MSB`, see [`MSB`]); tag candidates come from
    /// the classic zero-byte trick on `word ^ broadcast(frag)`, which
    /// never misses a true zero byte and only false-positives *above*
    /// the first true zero — harmless, because candidates are visited
    /// in ascending bucket order and verified against the control byte
    /// and key before use. Capacity is a power of two ≥ 8, so groups
    /// tile the table exactly and wrap-around lands on a group
    /// boundary.
    #[inline]
    fn probe(&self, disk_page: u64) -> Probe {
        let gmask = self.ctrl.len() / GROUP - 1;
        let h = Self::hash(disk_page);
        let frag = Self::frag(h);
        let home = (h >> self.shift) as usize;
        let mut g = home / GROUP;
        // The first group may start mid-chain: ignore lanes before the
        // home bucket so the probe is the byte-wise walk from `home`.
        let mut live = !0u64 << ((home % GROUP) * 8);
        loop {
            let word = self.load_group(g);
            let empties = word & MSB & live;
            let x = word ^ (LSB * frag as u64);
            let mut cands = x.wrapping_sub(LSB) & !x & MSB & live;
            if empties != 0 {
                // Buckets past the first empty terminate the chain.
                cands &= empties ^ empties.wrapping_sub(1);
            }
            while cands != 0 {
                let i = g * GROUP + cands.trailing_zeros() as usize / 8;
                if self.ctrl[i] == frag && self.keys[i] == disk_page {
                    self.note_probe(home, i);
                    return Probe::Found(i);
                }
                cands &= cands - 1;
            }
            if empties != 0 {
                let i = g * GROUP + empties.trailing_zeros() as usize / 8;
                self.note_probe(home, i);
                return Probe::Vacant(i);
            }
            g = (g + 1) & gmask;
            live = !0;
        }
    }

    /// Issues a best-effort prefetch of the cache lines a probe of
    /// `disk_page` touches first: the home bucket's control group and
    /// its key/location words. A pure hint — no architectural effect —
    /// which is what lets `FlashCache::op_batch` overlap the probe
    /// misses of independent ops without perturbing results.
    #[inline]
    pub fn prefetch(&self, disk_page: u64) {
        let home = self.home(disk_page);
        prefetch_read(self.ctrl.as_ptr().wrapping_add(home & !(GROUP - 1)));
        prefetch_read(self.keys.as_ptr().wrapping_add(home).cast());
        prefetch_read(self.locs.as_ptr().wrapping_add(home).cast());
    }

    /// Looks up the flash location of a disk page.
    #[inline]
    pub fn lookup(&self, disk_page: u64) -> Option<PageAddr> {
        match self.probe(disk_page) {
            Probe::Found(i) => Some(Self::unpack(self.locs[i])),
            Probe::Vacant(_) => None,
        }
    }

    /// Installs or moves a mapping, returning any previous location.
    pub fn insert(&mut self, disk_page: u64, addr: PageAddr) -> Option<PageAddr> {
        if (self.len + 1) * 8 > self.ctrl.len() * 7 {
            self.grow();
        }
        match self.probe(disk_page) {
            Probe::Found(i) => {
                let old = Self::unpack(self.locs[i]);
                self.locs[i] = Self::pack(addr);
                Some(old)
            }
            Probe::Vacant(i) => {
                self.ctrl[i] = Self::frag(Self::hash(disk_page));
                self.keys[i] = disk_page;
                self.locs[i] = Self::pack(addr);
                self.len += 1;
                None
            }
        }
    }

    /// Removes a mapping.
    pub fn remove(&mut self, disk_page: u64) -> Option<PageAddr> {
        let mask = self.ctrl.len() - 1;
        let i = match self.probe(disk_page) {
            Probe::Found(i) => i,
            Probe::Vacant(_) => return None,
        };
        let removed = Self::unpack(self.locs[i]);
        // Backward-shift deletion: walk the probe chain after the hole
        // and pull back every entry whose home bucket lies at or before
        // the hole, so chains stay contiguous without tombstones. The
        // walk is bucket-wise and oblivious to SWAR group boundaries —
        // a chain (or the hole it compacts) may span groups freely.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.ctrl[j] == CTRL_EMPTY {
                break;
            }
            let h = self.home(self.keys[j]);
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.ctrl[hole] = self.ctrl[j];
                self.keys[hole] = self.keys[j];
                self.locs[hole] = self.locs[j];
                hole = j;
            }
        }
        self.ctrl[hole] = CTRL_EMPTY;
        self.len -= 1;
        Some(removed)
    }

    fn grow(&mut self) {
        let doubled = (self.ctrl.len() * 2).max(8);
        let old_ctrl = std::mem::replace(&mut self.ctrl, vec![CTRL_EMPTY; doubled]);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; doubled]);
        let old_locs = std::mem::replace(&mut self.locs, vec![0; doubled]);
        self.shift = 64 - self.ctrl.len().trailing_zeros();
        let mask = self.ctrl.len() - 1;
        for (b, c) in old_ctrl.into_iter().enumerate() {
            if c == CTRL_EMPTY {
                continue;
            }
            let mut i = self.home(old_keys[b]);
            while self.ctrl[i] != CTRL_EMPTY {
                i = (i + 1) & mask;
            }
            self.ctrl[i] = c;
            self.keys[i] = old_keys[b];
            self.locs[i] = old_locs[b];
        }
    }
}

/// Best-effort read prefetch into the nearest cache level: a no-op on
/// architectures without a stable hint instruction. The crate's only
/// `unsafe`: the crate root denies it everywhere else.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch_read(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on invalid
    // addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint; it never faults.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Per-flash-page entry of the Flash page status table (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageState {
    /// Valid bit: the page holds live cached data.
    pub valid: bool,
    /// Dirty: content newer than the disk copy (write-cache pages).
    pub dirty: bool,
    /// Configured ECC strength for this flash page.
    pub ecc_strength: u8,
    /// Mode this flash page is (or will next be) programmed in.
    pub mode: CellMode,
    /// Saturating read-access counter (§5.2.2). This is the *raw*
    /// stored value; pending epoch decay may still apply — read through
    /// [`Fpst::access_count`] for the effective value.
    pub access_count: u8,
    /// Decay epoch `access_count` was last folded at (see
    /// [`Fpst::advance_decay_epoch`]).
    pub access_epoch: u32,
    /// Consecutive reads whose error count reached the configured
    /// strength — reconfiguration waits for errors that "fail
    /// consistently" (§5.2.1) so a transient soft error cannot trigger a
    /// permanent descriptor change.
    pub error_streak: u8,
}

impl PageState {
    fn fresh(ecc_strength: u8) -> Self {
        PageState {
            valid: false,
            dirty: false,
            ecc_strength,
            mode: CellMode::Mlc,
            access_count: 0,
            access_epoch: 0,
            error_streak: 0,
        }
    }

    /// Saturating increment of the access counter; returns the new value.
    pub fn bump_access(&mut self) -> u8 {
        self.access_count = self.access_count.saturating_add(1);
        self.access_count
    }
}

/// Sentinel in [`Fpst::disk_pages`] for "no disk page stored here".
const NO_DISK_PAGE: u64 = u64::MAX;

/// Flash page status table: dense per-slot state.
///
/// The reverse mapping (flash slot → disk page) lives in a separate
/// side-array rather than inside [`PageState`]: the hot paths (hit
/// servicing, access-count decay, descriptor checks) only touch the
/// small status fields, while the reverse map is consulted on GC and
/// invalidation. Splitting it keeps the per-slot status stride small so
/// table walks stream fewer cache lines.
#[derive(Debug)]
pub struct Fpst {
    geometry: FlashGeometry,
    pages: Vec<PageState>,
    /// Per-slot reverse mapping; [`NO_DISK_PAGE`] when empty.
    disk_pages: Vec<u64>,
    /// Current decay epoch: each page owes `decay_epoch - access_epoch`
    /// halvings of its access counter, applied lazily on the next
    /// touch. Advancing the epoch is O(1), replacing the old
    /// full-table decay walk on the access path.
    decay_epoch: u32,
}

impl Fpst {
    /// Builds the table for a device geometry, every page MLC at ECC
    /// strength `ecc_strength`.
    pub fn new(geometry: FlashGeometry, ecc_strength: u8) -> Self {
        let slots = geometry.total_slots() as usize;
        Fpst {
            geometry,
            pages: vec![PageState::fresh(ecc_strength); slots],
            disk_pages: vec![NO_DISK_PAGE; slots],
            decay_epoch: 0,
        }
    }

    fn idx(&self, addr: PageAddr) -> usize {
        addr.block.0 as usize * self.geometry.slots_per_block() as usize + addr.slot as usize
    }

    /// Immutable page state.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub fn get(&self, addr: PageAddr) -> &PageState {
        &self.pages[self.idx(addr)]
    }

    /// Mutable page state.
    pub fn get_mut(&mut self, addr: PageAddr) -> &mut PageState {
        let i = self.idx(addr);
        &mut self.pages[i]
    }

    /// Disk page stored at `addr` (reverse mapping), if any.
    pub fn disk_page(&self, addr: PageAddr) -> Option<u64> {
        let dp = self.disk_pages[self.idx(addr)];
        if dp == NO_DISK_PAGE {
            None
        } else {
            Some(dp)
        }
    }

    /// Records `disk_page` as the content of slot `addr`.
    pub fn set_disk_page(&mut self, addr: PageAddr, disk_page: u64) {
        debug_assert_ne!(disk_page, NO_DISK_PAGE, "disk page id is reserved");
        let i = self.idx(addr);
        self.disk_pages[i] = disk_page;
    }

    /// Clears the reverse mapping of slot `addr`.
    pub fn clear_disk_page(&mut self, addr: PageAddr) {
        let i = self.idx(addr);
        self.disk_pages[i] = NO_DISK_PAGE;
    }

    /// Clears and returns the reverse mapping of slot `addr`.
    pub fn take_disk_page(&mut self, addr: PageAddr) -> Option<u64> {
        let i = self.idx(addr);
        let dp = std::mem::replace(&mut self.disk_pages[i], NO_DISK_PAGE);
        if dp == NO_DISK_PAGE {
            None
        } else {
            Some(dp)
        }
    }

    /// Iterates (slot, state) pairs of one block.
    pub fn iter_block(&self, block: BlockId) -> impl Iterator<Item = (PageAddr, &PageState)> {
        let spb = self.geometry.slots_per_block();
        (0..spb).map(move |slot| {
            let addr = PageAddr::new(block, slot);
            (addr, &self.pages[self.idx(addr)])
        })
    }

    /// Starts a new decay epoch: every access counter is halved once,
    /// *lazily*. O(1) — pages fold the pending halvings the next time
    /// their counter is read or written, so steady-state accesses never
    /// pay a full-table walk. A `u8` counter is dead after 8 halvings,
    /// so the fold caps the shift and epoch wrap-around is harmless.
    pub fn advance_decay_epoch(&mut self) {
        self.decay_epoch = self.decay_epoch.wrapping_add(1);
    }

    /// The current decay epoch (stamp for direct `access_count` writes).
    pub fn decay_epoch(&self) -> u32 {
        self.decay_epoch
    }

    /// Effective access counter of `addr`, with pending decay applied.
    pub fn access_count(&self, addr: PageAddr) -> u8 {
        let p = self.get(addr);
        let owed = self.decay_epoch.wrapping_sub(p.access_epoch);
        if owed >= 8 {
            0
        } else {
            p.access_count >> owed
        }
    }

    /// Folds pending decay into the stored counter and stamps the page
    /// current. Returns the folded value.
    fn fold_decay(&mut self, addr: PageAddr) -> u8 {
        let epoch = self.decay_epoch;
        let folded = self.access_count(addr);
        let p = self.get_mut(addr);
        p.access_count = folded;
        p.access_epoch = epoch;
        folded
    }

    /// Saturating increment of `addr`'s access counter (folding pending
    /// decay first); returns the new effective value.
    pub fn bump_access(&mut self, addr: PageAddr) -> u8 {
        self.fold_decay(addr);
        self.get_mut(addr).bump_access()
    }

    /// Overwrites `addr`'s access counter with `value`, stamped at the
    /// current epoch (no decay owed until the next epoch).
    pub fn set_access_count(&mut self, addr: PageAddr, value: u8) {
        let epoch = self.decay_epoch;
        let p = self.get_mut(addr);
        p.access_count = value;
        p.access_epoch = epoch;
    }

    /// Sum of configured ECC strengths across a block (`TotalECC` in the
    /// degree-of-wear-out cost, §3.3).
    pub fn total_ecc(&self, block: BlockId) -> u32 {
        self.iter_block(block)
            .map(|(_, p)| p.ecc_strength as u32)
            .sum()
    }

    /// Number of pages of a block configured in SLC mode
    /// (`TotalSLC_MLC` in the wear cost). Counted per physical page
    /// (even slots), since a mode describes the physical page.
    pub fn total_slc(&self, block: BlockId) -> u32 {
        self.iter_block(block)
            .filter(|(a, p)| !a.is_upper_half() && p.mode == CellMode::Slc)
            .count() as u32
    }
}

/// Per-block entry of the Flash block status table (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockState {
    /// Erases performed on this block.
    pub erase_count: u64,
    /// Valid (live) pages currently in the block.
    pub valid_pages: u32,
    /// Programmed-but-invalidated pages awaiting GC.
    pub invalid_pages: u32,
    /// Logical timestamp of the last access, for block LRU.
    pub last_access: u64,
    /// Region the block currently serves.
    pub region: RegionKind,
    /// Permanently removed from service (§5.2: a page hit both the ECC
    /// and density limits and still fails).
    pub retired: bool,
    /// Running sum of configured ECC strengths over the block's slots
    /// (`TotalECC`), maintained incrementally so the wear cost is O(1).
    pub total_ecc: u32,
    /// Running count of physical pages configured in SLC mode
    /// (`TotalSLC_MLC`).
    pub slc_pages: u32,
}

impl BlockState {
    fn fresh(region: RegionKind, total_ecc: u32) -> Self {
        BlockState {
            erase_count: 0,
            valid_pages: 0,
            invalid_pages: 0,
            last_access: 0,
            region,
            retired: false,
            total_ecc,
            slc_pages: 0,
        }
    }
}

/// Flash block status table.
#[derive(Debug)]
pub struct Fbst {
    blocks: Vec<BlockState>,
}

impl Fbst {
    /// Builds the table with every block assigned by `region_of` and the
    /// running `TotalECC` seeded to `slots_per_block × ecc_strength`.
    pub fn new(
        blocks: u32,
        slots_per_block: u32,
        ecc_strength: u8,
        mut region_of: impl FnMut(BlockId) -> RegionKind,
    ) -> Self {
        let total = slots_per_block * ecc_strength as u32;
        Fbst {
            blocks: (0..blocks)
                .map(|b| BlockState::fresh(region_of(BlockId(b)), total))
                .collect(),
        }
    }

    /// Immutable block state.
    pub fn get(&self, block: BlockId) -> &BlockState {
        &self.blocks[block.0 as usize]
    }

    /// Mutable block state.
    pub fn get_mut(&mut self, block: BlockId) -> &mut BlockState {
        &mut self.blocks[block.0 as usize]
    }

    /// Iterates all blocks with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockState)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// The degree-of-wear-out cost of §3.3:
    /// `N_erase + k1·TotalECC + k2·TotalSLC` with k1 = 0.5 and k2 = 8,
    /// from the incrementally maintained sums (see
    /// [`Fpst::total_ecc`]/[`Fpst::total_slc`] for the ground-truth
    /// recomputation used in tests).
    pub fn wear_out(&self, block: BlockId) -> f64 {
        let s = self.get(block);
        s.erase_count as f64 + WEAR_K1 * s.total_ecc as f64 + WEAR_K2 * s.slc_pages as f64
    }
}

/// Flash global status table (§3.4): run-time averages steering the
/// controller heuristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fgst {
    /// Exponentially weighted flash miss rate.
    pub miss_rate: f64,
    /// Exponentially weighted average flash hit latency, µs.
    pub avg_hit_latency_us: f64,
    /// Total accesses observed.
    pub accesses: u64,
    /// Total misses observed.
    pub misses: u64,
}

/// EWMA smoothing factor of the [`Fgst`] rates.
const FGST_ALPHA: f64 = 0.001;

impl Default for Fgst {
    fn default() -> Self {
        Fgst {
            miss_rate: 0.0,
            avg_hit_latency_us: 50.0,
            accesses: 0,
            misses: 0,
        }
    }
}

impl Fgst {
    /// Records an access outcome.
    pub fn record(&mut self, hit: bool, hit_latency_us: f64) {
        self.accesses += 1;
        let miss = if hit { 0.0 } else { 1.0 };
        if !hit {
            self.misses += 1;
        }
        self.miss_rate += FGST_ALPHA * (miss - self.miss_rate);
        if hit {
            self.avg_hit_latency_us += FGST_ALPHA * (hit_latency_us - self.avg_hit_latency_us);
        }
    }

    /// Merges per-shard FGSTs into one table describing the union of the
    /// traffic: lifetime counters sum; the EWMA rates are combined as
    /// access-weighted (miss rate) and hit-weighted (hit latency)
    /// averages, the closest single-table equivalent of shards that each
    /// smoothed only their own slice of the stream.
    ///
    /// A single part is returned unchanged (not run through the weighted
    /// average), so a one-shard engine reports bit-identical FGST state
    /// to a bare cache.
    pub fn merged(parts: &[Fgst]) -> Fgst {
        if parts.len() == 1 {
            return parts[0];
        }
        let mut out = Fgst::default();
        if parts.is_empty() {
            return out;
        }
        let mut rate_num = 0.0;
        let mut lat_num = 0.0;
        let mut hits = 0u64;
        for p in parts {
            out.accesses += p.accesses;
            out.misses += p.misses;
            rate_num += p.miss_rate * p.accesses as f64;
            let h = p.accesses - p.misses;
            lat_num += p.avg_hit_latency_us * h as f64;
            hits += h;
        }
        if out.accesses > 0 {
            out.miss_rate = rate_num / out.accesses as f64;
        }
        if hits > 0 {
            out.avg_hit_latency_us = lat_num / hits as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionPolicyConfig, CacheOp, FlashCache, FlashCacheConfig};
    use nand_flash::FlashConfig;
    use proptest::prelude::*;

    fn geom() -> FlashGeometry {
        FlashGeometry {
            blocks: 4,
            pages_per_block: 4,
        }
    }

    /// Keys whose home bucket (in a table of `buckets`) is `want`,
    /// found by brute force — lets tests place probe chains exactly.
    fn keys_with_home(buckets: usize, want: usize, n: usize) -> Vec<u64> {
        let shift = 64 - buckets.trailing_zeros();
        (0..)
            .filter(|&k| (Fcht::hash(k) >> shift) as usize == want)
            .take(n)
            .collect()
    }

    /// A table pre-sized to `buckets` buckets (no growth below 7/8 load).
    fn sized(buckets: usize) -> Fcht {
        let t = Fcht::with_capacity(buckets * 7 / 8 - 1);
        assert_eq!(t.ctrl.len(), buckets);
        t
    }

    #[test]
    fn fcht_roundtrip() {
        let mut t = Fcht::new();
        assert!(t.is_empty());
        let a = PageAddr::new(BlockId(1), 3);
        assert_eq!(t.insert(42, a), None);
        assert_eq!(t.lookup(42), Some(a));
        assert_eq!(t.len(), 1);
        let b = PageAddr::new(BlockId(2), 0);
        assert_eq!(t.insert(42, b), Some(a));
        assert_eq!(t.remove(42), Some(b));
        assert_eq!(t.lookup(42), None);
    }

    /// Asserts the SWAR probe and the byte-wise reference terminate at
    /// the same bucket for every key in `keys`. Inserts and removals
    /// act only on that bucket, so agreement in every reachable state
    /// means a byte-wise table would hold the identical layout.
    fn assert_probes_agree(t: &Fcht, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            assert_eq!(t.probe(k), t.probe_bytewise(k), "key {k}");
        }
    }

    #[test]
    fn swar_and_bytewise_probes_stay_in_lock_step() {
        // Deterministic churn at high load: after every mutation the
        // two probes must agree on every key of the (dense) key space.
        let mut t = Fcht::with_capacity(64);
        let mut state = 0x1234_5678u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for round in 0..2_000 {
            let k = step() % 96; // dense key space => real collisions
            let addr = PageAddr::new(BlockId((round % 7) as u32), (round % 5) as u32);
            let _ = match round % 3 {
                0 => t.insert(k, addr),
                1 => t.remove(k),
                _ => t.lookup(k),
            };
            assert_probes_agree(&t, 0..96);
        }
        assert!(t.probe_groups() > 0);
        assert!(t.max_probe_len() >= 1);
    }

    #[test]
    fn backward_shift_across_group_boundary() {
        // A chain that starts in group 0 (bucket 6) and spills across
        // the boundary into group 1: deleting the head must pull the
        // spilled entries back across the boundary.
        let mut t = sized(16);
        let keys = keys_with_home(16, 6, 4);
        for (s, &k) in keys.iter().enumerate() {
            t.insert(k, PageAddr::new(BlockId(9), s as u32));
        }
        // Chain occupies buckets 6, 7 (group 0), 8, 9 (group 1).
        assert_eq!(
            t.ctrl[6..10].iter().filter(|&&c| c != CTRL_EMPTY).count(),
            4
        );
        assert_probes_agree(&t, keys.iter().copied());
        assert_eq!(t.remove(keys[0]), Some(PageAddr::new(BlockId(9), 0)));
        // Survivors shifted back; bucket 9 is the new hole.
        assert_eq!(t.ctrl[9], CTRL_EMPTY);
        assert_probes_agree(&t, keys.iter().copied());
        for (s, &k) in keys.iter().enumerate().skip(1) {
            assert_eq!(t.lookup(k), Some(PageAddr::new(BlockId(9), s as u32)));
        }
    }

    #[test]
    fn swar_probe_wraps_around_the_table_end() {
        // Home in the last group, chain wrapping to bucket 0: the group
        // cursor must wrap too (capacity is a multiple of the group
        // size, so the wrap lands exactly on a group boundary).
        let mut t = sized(16);
        let keys = keys_with_home(16, 14, 5);
        for (s, &k) in keys.iter().enumerate().take(4) {
            t.insert(k, PageAddr::new(BlockId(1), s as u32));
        }
        assert!(t.ctrl[0] != CTRL_EMPTY && t.ctrl[1] != CTRL_EMPTY);
        assert_probes_agree(&t, keys.iter().copied());
        for (s, &k) in keys.iter().enumerate().take(4) {
            assert_eq!(t.lookup(k), Some(PageAddr::new(BlockId(1), s as u32)));
        }
        // Absent key with the same home walks the whole wrapped
        // chain and still terminates at the first empty.
        assert_eq!(t.lookup(keys[4]), None);
        assert_eq!(t.remove(keys[1]), Some(PageAddr::new(BlockId(1), 1)));
        assert_eq!(t.lookup(keys[3]), Some(PageAddr::new(BlockId(1), 3)));
        assert_probes_agree(&t, keys.iter().copied());
    }

    #[test]
    fn stale_keys_beyond_an_empty_are_never_resurrected() {
        // Backward-shift leaves old key bytes behind CTRL_EMPTY
        // markers; a SWAR candidate false-positive on such a lane must
        // be rejected by the control-byte check.
        let mut t = sized(16);
        let keys = keys_with_home(16, 3, 2);
        t.insert(keys[0], PageAddr::new(BlockId(0), 0));
        t.insert(keys[1], PageAddr::new(BlockId(0), 1));
        t.remove(keys[1]);
        // keys[1]'s bytes may still sit in the keys array at bucket 4.
        assert_eq!(t.lookup(keys[1]), None);
        assert_eq!(t.lookup(keys[0]), Some(PageAddr::new(BlockId(0), 0)));
    }

    #[test]
    fn probe_counters_accumulate_and_prefetch_is_inert() {
        let mut t = Fcht::with_capacity(32);
        assert_eq!((t.probe_groups(), t.max_probe_len()), (0, 0));
        t.insert(7, PageAddr::new(BlockId(0), 0));
        let after_insert = t.probe_groups();
        assert!(after_insert >= 1);
        t.prefetch(7); // hint only: no counter movement, no state change
        assert_eq!(t.probe_groups(), after_insert);
        assert_eq!(t.lookup(7), Some(PageAddr::new(BlockId(0), 0)));
        assert!(t.probe_groups() > after_insert);
        assert!(t.max_probe_len() >= 1);
    }

    #[test]
    fn fpst_block_sums() {
        let mut t = Fpst::new(geom(), 1);
        let b = BlockId(2);
        // 8 slots per block here (4 physical pages x 2).
        assert_eq!(t.total_ecc(b), 8);
        assert_eq!(t.total_slc(b), 0);
        t.get_mut(PageAddr::new(b, 0)).ecc_strength = 5;
        t.get_mut(PageAddr::new(b, 0)).mode = CellMode::Slc;
        t.get_mut(PageAddr::new(b, 2)).mode = CellMode::Slc;
        t.get_mut(PageAddr::new(b, 3)).mode = CellMode::Slc; // upper half: not counted
        assert_eq!(t.total_ecc(b), 12);
        assert_eq!(t.total_slc(b), 2);
        // Other blocks unaffected.
        assert_eq!(t.total_ecc(BlockId(0)), 8);
    }

    #[test]
    fn access_counter_saturates() {
        let mut t = Fpst::new(geom(), 1);
        let p = t.get_mut(PageAddr::new(BlockId(0), 0));
        p.access_count = 254;
        assert_eq!(p.bump_access(), 255);
        assert_eq!(p.bump_access(), 255);
    }

    #[test]
    fn lazy_decay_matches_eager_halving() {
        let mut t = Fpst::new(geom(), 1);
        let a = PageAddr::new(BlockId(0), 0);
        t.set_access_count(a, 200);
        // One epoch: 200 -> 100; bump folds then increments.
        t.advance_decay_epoch();
        assert_eq!(t.access_count(a), 100);
        assert_eq!(t.bump_access(a), 101);
        // Three more epochs: 101 >> 3 = 12.
        for _ in 0..3 {
            t.advance_decay_epoch();
        }
        assert_eq!(t.access_count(a), 12);
        // A counter is dead after 8 epochs regardless of magnitude.
        t.set_access_count(a, 255);
        for _ in 0..8 {
            t.advance_decay_epoch();
        }
        assert_eq!(t.access_count(a), 0);
        assert_eq!(t.bump_access(a), 1);
    }

    #[test]
    fn set_access_count_stamps_current_epoch() {
        let mut t = Fpst::new(geom(), 1);
        let a = PageAddr::new(BlockId(1), 2);
        t.advance_decay_epoch();
        t.advance_decay_epoch();
        t.set_access_count(a, 40);
        // No decay owed until the *next* epoch.
        assert_eq!(t.access_count(a), 40);
        t.advance_decay_epoch();
        assert_eq!(t.access_count(a), 20);
    }

    #[test]
    fn fbst_wear_cost_weights_modes_heavily() {
        let mut fbst = Fbst::new(4, 8, 1, |_| RegionKind::Read);
        fbst.get_mut(BlockId(0)).erase_count = 10;
        let base = fbst.wear_out(BlockId(0));
        assert!((base - (10.0 + 0.5 * 8.0)).abs() < 1e-12);
        fbst.get_mut(BlockId(0)).slc_pages = 1;
        let with_slc = fbst.wear_out(BlockId(0));
        assert!((with_slc - base - 8.0).abs() < 1e-12);
    }

    #[test]
    fn fbst_incremental_sums_match_fpst_recomputation() {
        // The FBST keeps running TotalECC/TotalSLC; the FPST can always
        // recompute them. They must agree after reconfiguration.
        let mut fpst = Fpst::new(geom(), 1);
        let mut fbst = Fbst::new(4, 8, 1, |_| RegionKind::Read);
        let b = BlockId(1);
        fpst.get_mut(PageAddr::new(b, 0)).ecc_strength = 4;
        fbst.get_mut(b).total_ecc += 3;
        fpst.get_mut(PageAddr::new(b, 2)).mode = CellMode::Slc;
        fpst.get_mut(PageAddr::new(b, 3)).mode = CellMode::Slc;
        fbst.get_mut(b).slc_pages += 1;
        assert_eq!(fbst.get(b).total_ecc, fpst.total_ecc(b));
        assert_eq!(fbst.get(b).slc_pages, fpst.total_slc(b));
    }

    #[test]
    fn fbst_regions_assigned() {
        let fbst = Fbst::new(10, 8, 1, |b| {
            if b.0 < 9 {
                RegionKind::Read
            } else {
                RegionKind::Write
            }
        });
        let reads = fbst
            .iter()
            .filter(|(_, s)| s.region == RegionKind::Read)
            .count();
        assert_eq!(reads, 9);
    }

    #[test]
    fn fgst_tracks_rates() {
        let mut g = Fgst::default();
        for _ in 0..900 {
            g.record(true, 50.0);
        }
        for _ in 0..100 {
            g.record(false, 0.0);
        }
        assert_eq!((g.accesses, g.misses), (1000, 100));
        assert!(g.miss_rate > 0.0 && g.miss_rate < 0.5);
        assert!(g.avg_hit_latency_us > 0.0);
    }

    #[test]
    fn fgst_merged_single_part_is_identity() {
        let mut g = Fgst::default();
        for i in 0..57 {
            g.record(i % 3 != 0, 42.5);
        }
        // Bit-identical, not just approximately equal: the one-shard
        // engine must match a bare cache exactly.
        assert_eq!(Fgst::merged(&[g]), g);
    }

    #[test]
    fn fgst_merged_weights_by_traffic() {
        let mut a = Fgst::default();
        let mut b = Fgst::default();
        for _ in 0..300 {
            a.record(true, 40.0);
        }
        for _ in 0..100 {
            b.record(false, 0.0);
        }
        let m = Fgst::merged(&[a, b]);
        assert_eq!(m.accesses, 400);
        assert_eq!(m.misses, 100);
        // Weighted EWMA miss rate sits between the parts'.
        assert!(m.miss_rate > a.miss_rate && m.miss_rate < b.miss_rate);
        // Empty merge yields the default table.
        assert_eq!(Fgst::merged(&[]), Fgst::default());
    }

    // ------------------------------------------------------------------
    // Lock-step reference under real cache traffic: fills, evictions,
    // reclaim and backward-shift deletion drive the table through the
    // states the product reaches.
    // ------------------------------------------------------------------

    fn tiny_cache(admission: AdmissionPolicyConfig) -> FlashCache {
        let config = FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry {
                    blocks: 8,
                    pages_per_block: 4,
                },
                ..FlashConfig::default()
            })
            .admission(admission)
            .build()
            .expect("valid config");
        FlashCache::new(config).expect("valid cache")
    }

    fn admission_strategy() -> impl Strategy<Value = AdmissionPolicyConfig> {
        prop_oneof![
            Just(AdmissionPolicyConfig::AdmitAll),
            Just(AdmissionPolicyConfig::ReReference),
        ]
    }

    fn op_strategy(pages: u64) -> impl Strategy<Value = CacheOp> {
        prop_oneof![
            (0..pages).prop_map(CacheOp::read),
            (0..pages).prop_map(CacheOp::write),
        ]
    }

    /// Runs `ops` through `cache`, checking after every op that both
    /// probes agree on every page of the op universe.
    fn run_in_lock_step(mut cache: FlashCache, ops: &[CacheOp], pages: u64) {
        for &op in ops {
            cache.op(op);
            assert_probes_agree(&cache.fcht, 0..pages);
        }
        cache.check_invariants().expect("tables stay consistent");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The SWAR probe matches the byte-at-a-time reference through
        /// arbitrary op sequences under every admission policy.
        #[test]
        fn swar_probe_matches_bytewise_oracle(
            ops in prop::collection::vec(op_strategy(120), 1..300),
            admission in admission_strategy(),
        ) {
            run_in_lock_step(tiny_cache(admission), &ops, 120);
        }

        /// Densely hammering a small page range forces FCHT chains
        /// across group boundaries and exercises backward-shift
        /// deletion under reclaim.
        #[test]
        fn dense_churn_keeps_probe_flavours_in_lock_step(
            ops in prop::collection::vec(op_strategy(40), 50..400),
        ) {
            run_in_lock_step(tiny_cache(AdmissionPolicyConfig::AdmitAll), &ops, 40);
        }
    }
}
