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
//! The default is the [`Doorkeeper`] (a fill on the page's second miss).
//! [`AdmitAll`] is the paper's §5.1 rule, byte-identical to pre-admission
//! behaviour: the differential tests' reference, pinned by every figure.

use std::fmt;

use crate::config::AdmissionPolicyConfig;
use crate::tables::Fcht;
use nand_flash::fxhash::FxHashMap;

/// Decides, per access, whether a page may occupy flash space.
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// Whether `disk_page` has earned a read-miss fill (one it has not
    /// may still fill on the reserve: `FlashCache::admitted_fill`).
    fn admit_fill(&mut self, disk_page: u64) -> bool;

    /// Whether a host write of `disk_page` may be programmed into the
    /// write region. `tick` is the cache's logical access clock.
    fn admit_write(&mut self, disk_page: u64, tick: u64) -> bool;

    /// Whether a write hitting an already-dirty cached copy may be
    /// absorbed in place without a reprogram (the flash already owes
    /// that page's flush, so the overwrite carries no new obligation).
    fn coalesces_dirty_overwrites(&self) -> bool {
        false
    }
}

/// The paper's §5.1 rule: every fill and write is admitted.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn admit_fill(&mut self, _disk_page: u64) -> bool {
        true
    }

    fn admit_write(&mut self, _disk_page: u64, _tick: u64) -> bool {
        true
    }
}

/// Second-miss admission (Flashield's and WLFC's position: a page proves
/// itself before it earns a flash write): a read-miss fill is admitted
/// once an earlier miss of the page is remembered, so one-hit wonders
/// stop costing programs and evicting proven pages. Host writes are
/// always admitted: dirty data has to land somewhere, and write-region
/// compaction already drops the unread ones.
///
/// The memory is two generations of a blocked Bloom filter, 8 bits per
/// remembered page: a page's two bits sit in one 64-bit word per
/// generation, and the generations' words are adjacent, so a
/// test-and-record touches one cache line. The clock is *distinct
/// pages*: the generations rotate once `horizon` pages new to the
/// current one have been recorded — the cache's slot count, a page's own
/// residency had it been cached — so a page is remembered for one to two
/// horizons whatever the access rate, and forgotten without a sweep.
#[derive(Debug)]
pub struct Doorkeeper {
    /// `[generation 0, generation 1]` per word index.
    words: Vec<[u64; 2]>,
    /// The generation being recorded into (0 or 1).
    cur: usize,
    /// Distinct pages recorded in the current generation.
    recorded: u64,
    horizon: u64,
}

impl Doorkeeper {
    /// Builds the doorkeeper for a cache of `slots` page slots.
    pub fn new(slots: u64) -> Self {
        let horizon = slots.max(1);
        Doorkeeper {
            words: vec![[0; 2]; horizon.div_ceil(8) as usize],
            cur: 0,
            recorded: 0,
            horizon,
        }
    }

    /// Whether `page` is remembered from an earlier call, recording it
    /// in the current generation either way.
    fn seen(&mut self, page: u64) -> bool {
        // The FCHT's multiplicative hash, twice: one product loads the
        // words unevenly under a scan of consecutive pages, which a Bloom
        // filter pays for in false positives. Word from the high product
        // bits, bit positions from the twelve below them.
        let h = Fcht::hash(page);
        let h = Fcht::hash(h ^ (h >> 32));
        let word = (((h >> 32) * self.words.len() as u64) >> 32) as usize;
        let mask = 1u64 << ((h >> 26) & 63) | 1u64 << ((h >> 20) & 63);
        let pair = &mut self.words[word];
        let in_cur = pair[self.cur] & mask == mask;
        let known = in_cur || pair[self.cur ^ 1] & mask == mask;
        if !in_cur {
            pair[self.cur] |= mask;
            self.recorded += 1;
            if self.recorded == self.horizon {
                self.recorded = 0;
                self.cur ^= 1;
                for pair in &mut self.words {
                    pair[self.cur] = 0;
                }
            }
        }
        known
    }
}

impl AdmissionPolicy for Doorkeeper {
    fn admit_fill(&mut self, disk_page: u64) -> bool {
        self.seen(disk_page)
    }

    fn admit_write(&mut self, _disk_page: u64, _tick: u64) -> bool {
        true
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
    fn admit_fill(&mut self, _disk_page: u64) -> bool {
        true
    }

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
        AdmissionPolicyConfig::ReReference => Box::new(Doorkeeper::new(slots)),
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

    impl Doorkeeper {
        /// [`Doorkeeper::seen`] without the record.
        fn words_hold(&self, page: u64) -> bool {
            let mut probe = Doorkeeper {
                words: self.words.clone(),
                ..*self
            };
            probe.seen(page)
        }
    }

    #[test]
    fn admit_all_admits_everything() {
        let mut p = AdmitAll;
        assert!(p.admit_fill(1));
        assert!(p.admit_write(2, u64::MAX));
        assert!(!p.coalesces_dirty_overwrites());
    }

    /// The doorkeeper's `k` is one: a fill on the second miss.
    #[test]
    fn rereference_requires_k_rereads() {
        let mut p = Doorkeeper::new(1000);
        assert!(!p.admit_fill(7), "unknown on first sight");
        assert!(p.admit_fill(7), "known on the second");
        assert!(
            !p.admit_fill(8),
            "independent pages are remembered separately"
        );
        assert!(p.admit_write(9, 0), "host writes are never gated");
    }

    /// Pages spread over the key space (a scan of consecutive pages
    /// would also do; spread keys exercise every word).
    fn page(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20
    }

    /// Records fresh pages `from..` until the generations rotate;
    /// returns the next unused index.
    fn fill_generation(d: &mut Doorkeeper, from: u64) -> u64 {
        let cur = d.cur;
        let mut i = from;
        while d.cur == cur {
            d.seen(page(i));
            i += 1;
        }
        i
    }

    #[test]
    fn rereference_history_survives_one_rotation() {
        let n = 4096;
        let mut d = Doorkeeper::new(n);
        assert!(!d.seen(page(0)));
        let next = fill_generation(&mut d, 1);
        // A page the filter already seems to hold is not counted, so a
        // generation takes a few more than `n` pages to fill.
        assert!((n..n + n / 10).contains(&next), "rotated after {next}");
        assert!(d.seen(page(0)), "one rotation: still remembered");
    }

    /// The window is a generation of distinct pages, not of accesses.
    #[test]
    fn rereference_counters_decay_after_two_windows() {
        let n = 4096;
        let mut d = Doorkeeper::new(n);
        let next = fill_generation(&mut d, 0);
        // Page 0 is re-recorded in the new generation; pages 1.. are
        // not, and a second rotation drops the generation they are in.
        assert!(d.seen(page(0)));
        fill_generation(&mut d, next);
        assert!(d.seen(page(0)), "refreshed by its re-record");
        let forgotten = (1..n).filter(|&i| !d.words_hold(page(i))).count() as u64;
        assert!(forgotten > n * 9 / 10, "{forgotten} of {n} forgotten");
    }

    #[test]
    fn doorkeeper_rotation_counts_distinct_pages_not_calls() {
        let mut d = Doorkeeper::new(64);
        for _ in 0..10_000 {
            d.seen(page(1));
            d.seen(page(2));
        }
        assert_eq!((d.cur, d.recorded), (0, 2), "re-recording never rotates");
    }

    #[test]
    fn doorkeeper_false_positive_rate_at_a_full_generation() {
        for slots in [1000u64, 65_536] {
            let mut d = Doorkeeper::new(slots);
            // One short of rotation: the current generation is as full
            // as it ever gets, the previous one is empty.
            for i in 0..slots - 1 {
                d.seen(page(i));
            }
            assert_eq!(d.cur, 0);
            let probes = 20_000;
            let fp = (0..probes)
                .filter(|&i| d.words_hold(page(1 << 40 | i)))
                .count();
            assert!(
                fp * 10 <= probes as usize,
                "{slots} slots: {fp} false positives in {probes}"
            );
            // Consecutive page numbers (a scan) fare no worse.
            let mut d = Doorkeeper::new(slots);
            for i in 0..slots - 1 {
                d.seen(i);
            }
            let fp = (0..probes).filter(|&i| d.words_hold(slots + i)).count();
            assert!(
                fp * 10 <= probes as usize,
                "{slots} slots, scan: {fp} false positives in {probes}"
            );
        }
    }

    #[test]
    fn doorkeeper_is_deterministic() {
        let run = || {
            let mut d = Doorkeeper::new(512);
            let answers: Vec<bool> = (0..5000u64).map(|i| d.seen(page(i % 1500))).collect();
            (answers, d.words, d.cur, d.recorded)
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
        assert!(format!("{p:?}").contains("Doorkeeper"));
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
