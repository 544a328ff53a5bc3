//! Write-minimizing admission control and longevity-aware placement.
//!
//! The paper admits every DRAM-evicted page into the flash cache; the
//! related work shows most of those flash writes are avoidable.
//! [`AdmissionPolicy`] gates what may enter flash at all — modelled on
//! Flashield's "prove re-read-worthiness first" and WLFC's "just write
//! less" bandwidth cap — while [`Longevity`] chooses *where* admitted
//! writes land: per-bucket open blocks in the write region keyed by
//! predicted re-write interval, so short-lived pages co-locate and
//! invalidate whole blocks together, cutting GC write amplification.
//!
//! The default is the [`FrequencySketch`] (a fill must be hotter than the
//! last eviction's median page). [`AdmitAll`] is the paper's §5.1 rule,
//! byte-identical to pre-admission behaviour: the differential tests'
//! reference, pinned by every figure.

use std::fmt;

use crate::config::AdmissionPolicyConfig;
use crate::tables::Fcht;
use nand_flash::fxhash::FxHashMap;

/// Gates what may occupy flash space; every default is the paper's rule.
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// Whether `disk_page` has earned a read-miss fill.
    fn admit_fill(&mut self, _disk_page: u64) -> bool {
        true
    }

    /// Whether a host write of `disk_page` may be programmed into the
    /// write region. `tick` is the cache's logical access clock.
    fn admit_write(&mut self, _disk_page: u64, _tick: u64) -> bool {
        true
    }

    /// Whether a write hitting an already-dirty cached copy may be
    /// absorbed in place without a reprogram (the flash already owes
    /// that page's flush, so the overwrite carries no new obligation).
    fn coalesces_dirty_overwrites(&self) -> bool {
        false
    }

    /// A flash-level read of `disk_page`, hit or miss, before its
    /// lookup. Returns whether this read aged the policy's history.
    fn count_read(&mut self, _disk_page: u64) -> bool {
        false
    }

    /// The pages an eviction from the region read fills land in drops.
    fn observe_eviction(&mut self, _dropped: &mut dyn Iterator<Item = u64>) {}

    /// The estimate a read-miss fill has to exceed (0 = no bar).
    fn bar(&self) -> u8 {
        0
    }
}

/// The paper's §5.1 rule: every fill and write is admitted.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {}

/// Frequency admission (TinyLFU's position): a read-miss fill is admitted
/// iff the page has been read more often than the median page the last
/// eviction dropped: a newcomer must be hotter than what it pushes out.
/// Host writes are neither counted nor gated: dirty data has to land
/// somewhere, and write-region compaction drops the unread ones.
///
/// The memory is a count-min sketch, one word of sixteen 4-bit counters
/// per cache slot; a page owns four nibbles of one word, so a count is
/// one cache line. Every `10 × slots` counted reads all counters and the
/// bar halve, so neither outlives a phase change of the trace.
#[derive(Debug)]
pub struct FrequencySketch {
    words: Vec<u64>,
    /// Reads counted since the last halving, which ten per word bring on.
    reads: u64,
    /// Upper-median estimate of the pages the last read-side eviction
    /// dropped; 0 until there has been one: every counted miss fills.
    bar: u8,
}

impl FrequencySketch {
    /// Builds the sketch for a cache of `slots` page slots.
    pub fn new(slots: u64) -> Self {
        let slots = slots.max(1);
        FrequencySketch {
            words: vec![0; slots as usize],
            reads: 0,
            bar: 0,
        }
    }

    /// The page's word and the bit offsets of its four counters in it.
    fn locate(&self, page: u64) -> (usize, [u32; 4]) {
        // The FCHT's multiplicative hash, twice: one product loads the
        // words unevenly under a scan of consecutive pages. Word from the
        // high product bits, nibbles from the sixteen below them.
        let h = Fcht::hash(page);
        let h = Fcht::hash(h ^ (h >> 32));
        let word = (((h >> 32) * self.words.len() as u64) >> 32) as usize;
        (word, [28, 24, 20, 16].map(|s| ((h >> s) & 15) as u32 * 4))
    }

    /// Reads of `page` counted and not yet aged away; never an
    /// under-count, and at most 15.
    fn estimate(&self, page: u64) -> u8 {
        let (word, at) = self.locate(page);
        least(self.words[word], at) as u8
    }
}

/// The least of word `w`'s counters at bit offsets `at`.
fn least(w: u64, at: [u32; 4]) -> u64 {
    at.iter().fold(15, |min, s| min.min((w >> s) & 15))
}

impl AdmissionPolicy for FrequencySketch {
    fn admit_fill(&mut self, disk_page: u64) -> bool {
        self.estimate(disk_page) > self.bar
    }

    /// Conservative update: only the counters at the page's minimum
    /// rise, so a colliding page's higher counters are left alone.
    fn count_read(&mut self, disk_page: u64) -> bool {
        let (word, at) = self.locate(disk_page);
        let w = &mut self.words[word];
        let min = least(*w, at);
        for s in at {
            if min < 15 && (*w >> s) & 15 == min {
                *w += 1 << s;
            }
        }
        self.reads += 1;
        let aged = self.reads == 10 * self.words.len() as u64;
        if aged {
            self.reads = 0;
            let halve = |w: &mut u64| *w = (*w >> 1) & 0x7777_7777_7777_7777;
            self.words.iter_mut().for_each(halve);
            self.bar /= 2;
        }
        aged
    }

    fn observe_eviction(&mut self, dropped: &mut dyn Iterator<Item = u64>) {
        let mut bins = [0u32; 16];
        for page in dropped {
            bins[self.estimate(page) as usize] += 1;
        }
        let (total, mut seen) = (bins.iter().sum::<u32>(), 0);
        let median = bins.iter().position(|&n| {
            seen += n;
            2 * seen > total
        });
        self.bar = median.map_or(self.bar, |m| m as u8);
    }

    fn bar(&self) -> u8 {
        self.bar
    }
}

/// WLFC-style write cap: a token bucket bounds how many host writes per
/// window may be programmed into flash; everything above the cap goes
/// straight to disk. Fills are never capped — the cap protects the
/// write region's program/erase budget, not read caching.
#[derive(Debug)]
pub struct WriteCap {
    pages_per_window: u64,
    window: u64,
    coalesce: bool,
    epoch: u64,
    tokens: u64,
}

impl WriteCap {
    /// Builds the policy: at most `pages_per_window` admitted host
    /// writes per `window` accesses (burst capacity = one window's
    /// allowance). `coalesce` additionally absorbs overwrites of
    /// already-dirty cached pages without a reprogram.
    pub fn new(pages_per_window: u64, window: u64, coalesce: bool) -> Self {
        WriteCap {
            pages_per_window: pages_per_window.max(1),
            window: window.max(1),
            coalesce,
            epoch: 0,
            tokens: pages_per_window.max(1),
        }
    }

    fn refill(&mut self, tick: u64) {
        let epoch = tick / self.window;
        if epoch > self.epoch {
            // Tokens never accumulate past one window's allowance, so a
            // long quiet period cannot bank an unbounded burst.
            self.tokens = self.pages_per_window;
            self.epoch = epoch;
        }
    }
}

impl AdmissionPolicy for WriteCap {
    fn admit_write(&mut self, _disk_page: u64, tick: u64) -> bool {
        self.refill(tick);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    fn coalesces_dirty_overwrites(&self) -> bool {
        self.coalesce
    }
}

/// Instantiates the policy a config selects, for a cache of `slots`
/// page slots.
pub fn build_policy(config: &AdmissionPolicyConfig, slots: u64) -> Box<dyn AdmissionPolicy> {
    match *config {
        AdmissionPolicyConfig::AdmitAll => Box::new(AdmitAll),
        AdmissionPolicyConfig::ReReference => Box::new(FrequencySketch::new(slots)),
        AdmissionPolicyConfig::WriteCap {
            pages_per_window,
            window,
            coalesce,
        } => Box::new(WriteCap::new(pages_per_window, window, coalesce)),
    }
}

/// Longevity predictor for write placement: maps each admitted host
/// write to a write-region bucket by its observed re-write interval.
/// Bucket 0 collects the shortest-lived pages (re-written fastest);
/// the top bucket collects long-lived and history-free pages. Each
/// bucket owns its own open block, so pages with similar lifetimes
/// share erase blocks and tend to invalidate together.
#[derive(Debug)]
pub struct Longevity {
    buckets: u32,
    /// The interval treated as "long-lived"; bucket thresholds halve
    /// geometrically below it.
    horizon: u64,
    window: u64,
    epoch_start: u64,
    /// Last-write tick per page, two generations (a record survives at
    /// most one rotation, which bounds the maps without a sweep).
    cur: FxHashMap<u64, u64>,
    prev: FxHashMap<u64, u64>,
}

impl Longevity {
    /// Builds the predictor. With one bucket the predictor is inert
    /// (always bucket 0) and keeps no history — the pre-bucketing
    /// behaviour.
    pub(crate) fn new(buckets: u32, horizon: u64) -> Self {
        let horizon = horizon.max(2);
        Longevity {
            buckets: buckets.max(1),
            horizon,
            window: horizon,
            epoch_start: 0,
            cur: FxHashMap::default(),
            prev: FxHashMap::default(),
        }
    }

    fn rotate_if_due(&mut self, tick: u64) {
        if tick.wrapping_sub(self.epoch_start) >= self.window {
            self.prev = std::mem::take(&mut self.cur);
            self.epoch_start = tick;
        }
    }

    /// The bucket an admitted write of `page` should land in, recording
    /// the write for the next prediction.
    pub(crate) fn bucket_for_write(&mut self, page: u64, tick: u64) -> u32 {
        if self.buckets <= 1 {
            return 0;
        }
        self.rotate_if_due(tick);
        let last = self
            .cur
            .get(&page)
            .copied()
            .or_else(|| self.prev.get(&page).copied());
        self.cur.insert(page, tick);
        let Some(last) = last else {
            // No history: assume long-lived until proven otherwise.
            return self.buckets - 1;
        };
        let interval = tick.saturating_sub(last).max(1);
        // Geometric quantization: bucket b-1 takes intervals in
        // [horizon/2, inf), b-2 takes [horizon/4, horizon/2), ... and
        // bucket 0 everything below the smallest threshold.
        let mut bucket = self.buckets - 1;
        let mut threshold = self.horizon;
        while bucket > 0 {
            threshold /= 2;
            if interval >= threshold.max(1) {
                return bucket;
            }
            bucket -= 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_all_admits_everything() {
        let mut p = AdmitAll;
        assert!(p.admit_fill(1));
        assert!(p.admit_write(2, u64::MAX));
        assert!(!p.coalesces_dirty_overwrites());
        assert!(!p.count_read(1), "nothing to age");
        p.observe_eviction(&mut [1u64, 2].into_iter());
        assert_eq!(p.bar(), 0);
    }

    /// Pages spread over the key space (a scan of consecutive pages
    /// would also do; spread keys exercise every word).
    fn page(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20
    }

    fn count(s: &mut FrequencySketch, page: u64, times: u32) {
        for _ in 0..times {
            s.count_read(page);
        }
    }

    /// The rule has no `k`: a counted miss clears a bar of 0, and after
    /// an eviction a fill needs more reads than the median dropped page.
    #[test]
    fn rereference_requires_k_rereads() {
        let mut p = FrequencySketch::new(1000);
        assert!(!p.admit_fill(7), "an uncounted page estimates 0");
        p.count_read(7);
        assert!(p.admit_fill(7), "before any eviction every miss fills");
        count(&mut p, 8, 3);
        count(&mut p, 9, 5);
        p.observe_eviction(&mut [7u64, 8, 9].into_iter());
        assert_eq!(p.bar(), 3, "the median of 1, 3, 5");
        assert!(!p.admit_fill(8), "as hot as the bar is not hotter");
        count(&mut p, 8, 1);
        assert!(p.admit_fill(8));
        // An even count takes the upper middle; nothing dropped, no news.
        p.observe_eviction(&mut [7u64, 9].into_iter());
        assert_eq!(p.bar(), 5);
        p.observe_eviction(&mut std::iter::empty());
        assert_eq!(p.bar(), 5);
        assert!(p.admit_write(10, 0), "host writes are never gated");
        assert_eq!(p.estimate(10), 0, "nor counted");
    }

    /// Counts reads of `filler` until one of them halves the sketch.
    fn age(s: &mut FrequencySketch, filler: u64) {
        while !s.count_read(filler) {}
    }

    #[test]
    fn rereference_history_survives_one_rotation() {
        let mut s = FrequencySketch::new(4096);
        count(&mut s, page(0), 9);
        s.observe_eviction(&mut [page(0)].into_iter());
        assert_eq!(s.bar(), 9);
        age(&mut s, page(1));
        assert_eq!(s.estimate(page(0)), 4, "one halving: 9 -> 4");
        assert_eq!(
            s.bar(),
            4,
            "the bar ages with the counts it is held against"
        );
    }

    /// A window is ten reads per slot; a page not read again fades by
    /// half per window, and the bar with it.
    #[test]
    fn rereference_counters_decay_after_two_windows() {
        let mut s = FrequencySketch::new(4096);
        count(&mut s, page(0), 3);
        s.observe_eviction(&mut [page(0)].into_iter());
        age(&mut s, page(1));
        assert_eq!((s.estimate(page(0)), s.bar()), (1, 1));
        assert!(!s.admit_fill(page(0)));
        age(&mut s, page(1));
        assert_eq!((s.estimate(page(0)), s.bar()), (0, 0));
        s.count_read(page(0));
        assert!(s.admit_fill(page(0)), "a thawed bar admits again");
    }

    #[test]
    fn sketch_ages_by_counted_reads_not_distinct_pages() {
        let mut s = FrequencySketch::new(64);
        for i in 0..640 {
            assert_eq!(s.count_read(page(i % 2)), i == 639);
        }
        assert_eq!(s.estimate(page(0)), 7, "saturated at 15, then halved");
        assert_eq!(s.reads, 0);
    }

    #[test]
    fn sketch_never_undercounts_and_rarely_overcounts() {
        for slots in [1000u64, 65_536] {
            // One read per slot of distinct pages, spread and scanned:
            // a page counted once estimates at least 1, and few pages
            // never counted estimate above 0.
            for key in [page as fn(u64) -> u64, |i| i] {
                let mut s = FrequencySketch::new(slots);
                for i in 0..slots {
                    s.count_read(key(i));
                }
                assert!((0..slots).all(|i| s.estimate(key(i)) >= 1));
                let probes = 20_000;
                let over = (0..probes)
                    .filter(|&i| s.estimate(key(1 << 40 | i)) > 0)
                    .count();
                assert!(
                    over * 20 <= probes as usize,
                    "{slots} slots: {over} of {probes} uncounted pages estimate > 0"
                );
            }
        }
    }

    #[test]
    fn sketch_conservative_update_spares_a_colliding_pages_higher_counters() {
        let s = FrequencySketch::new(1);
        // Two pages of the one word sharing some but not all counters.
        let (a, b) = (0..64u64)
            .flat_map(|a| (0..a).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let (a, b) = (s.locate(a).1, s.locate(b).1);
                a.iter().any(|s| b.contains(s)) && a.iter().any(|s| !b.contains(s))
            })
            .expect("some pair of 64 pages overlaps partly");
        let mut s = FrequencySketch::new(1);
        count(&mut s, a, 6);
        let before = s.words[0];
        count(&mut s, b, 2);
        assert_eq!(s.estimate(b), 2);
        assert_eq!(s.estimate(a), 6, "b's reads stayed below a's counters");
        let shared: u64 = s.locate(a).1.iter().map(|&at| 15u64 << at).sum();
        assert_eq!(s.words[0] & shared, before & shared);
    }

    #[test]
    fn sketch_saturates_at_15_and_halves_without_borrowing() {
        let mut s = FrequencySketch::new(1);
        count(&mut s, 7, 9);
        assert_eq!(s.estimate(7), 9);
        // The tenth read is counted, then ages the one-slot sketch.
        assert!(s.count_read(7));
        assert_eq!(s.estimate(7), 5);
        let mut s = FrequencySketch::new(8);
        count(&mut s, 7, 40);
        assert_eq!(s.estimate(7), 15, "saturated, no carry into a neighbour");
        let (word, at) = s.locate(7);
        let own: u64 = at.iter().map(|&at| 15u64 << at).fold(0, |m, n| m | n);
        assert_eq!(s.words[word], own);
        // Odd nibbles: a plain `>> 1` would leak each low bit into the
        // nibble below.
        s.words.fill(0xF731_F731_F731_F731);
        s.reads = 10 * 8 - 1;
        assert!(s.count_read(7));
        for (i, &w) in s.words.iter().enumerate() {
            assert!(i == word || w == 0x7310_7310_7310_7310, "word {i}: {w:x}");
        }
    }

    #[test]
    fn sketch_is_deterministic() {
        let run = || {
            let mut s = FrequencySketch::new(512);
            let aged: Vec<bool> = (0..12_000u64)
                .map(|i| s.count_read(page(i % 1500)))
                .collect();
            s.observe_eviction(&mut (0..128).map(page));
            (aged, s.words, s.reads, s.bar)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn writecap_bounds_admitted_writes_per_window() {
        let mut p = WriteCap::new(3, 100, false);
        let admitted = (0..10).filter(|i| p.admit_write(*i, 50)).count();
        assert_eq!(admitted, 3);
        // Next window refills the bucket.
        assert!(p.admit_write(11, 150));
        // Fills are never capped.
        assert!(p.admit_fill(12));
    }

    #[test]
    fn writecap_tokens_do_not_bank_across_quiet_windows() {
        let mut p = WriteCap::new(2, 10, true);
        assert!(p.coalesces_dirty_overwrites());
        // Many quiet windows pass; allowance stays one window's worth.
        let admitted = (0..10).filter(|i| p.admit_write(*i, 1000)).count();
        assert_eq!(admitted, 2);
    }

    #[test]
    fn single_bucket_longevity_is_inert() {
        let mut l = Longevity::new(1, 1000);
        for t in 0..100 {
            assert_eq!(l.bucket_for_write(t, t), 0);
        }
        assert!(l.cur.is_empty(), "no history kept with one bucket");
    }

    #[test]
    fn longevity_routes_by_rewrite_interval() {
        let mut l = Longevity::new(4, 1024);
        // Unknown history: top bucket.
        assert_eq!(l.bucket_for_write(1, 10), 3);
        // Re-written almost immediately: shortest-lived bucket.
        assert_eq!(l.bucket_for_write(1, 11), 0);
        // Re-written after half the horizon: top bucket again.
        assert_eq!(l.bucket_for_write(1, 11 + 512), 3);
        // Mid-range interval lands in a middle bucket.
        let b = l.bucket_for_write(1, 11 + 512 + 300);
        assert!(b == 2, "interval 300 vs thresholds 512/256/128, got {b}");
    }

    #[test]
    fn build_policy_matches_config() {
        let p = build_policy(&AdmissionPolicyConfig::AdmitAll, 64);
        assert!(format!("{p:?}").contains("AdmitAll"));
        let p = build_policy(&AdmissionPolicyConfig::ReReference, 64);
        assert!(format!("{p:?}").contains("FrequencySketch"));
        let p = build_policy(
            &AdmissionPolicyConfig::WriteCap {
                pages_per_window: 4,
                window: 10,
                coalesce: true,
            },
            64,
        );
        assert!(p.coalesces_dirty_overwrites());
    }
}
