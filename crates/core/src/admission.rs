//! Frequency admission in front of read-miss fills.
//!
//! The paper admits every DRAM-evicted page into the flash cache; the
//! related work (Flashield, TinyLFU) shows most of those fills are never
//! read again. The default is the [`FrequencySketch`]: a fill must be
//! hotter than the last eviction's median page. A cache configured with
//! [`crate::AdmissionPolicyConfig::AdmitAll`] holds no sketch at all — the
//! paper's §5.1 rule, the differential tests' reference, pinned by every
//! figure. Host writes are admitted under both.

use crate::tables::{prefetch_read, Fcht};

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

    /// Issues a best-effort prefetch of the word `count_read(disk_page)`
    /// updates: a pure hint, like [`Fcht::prefetch`].
    #[inline]
    pub(crate) fn prefetch(&self, disk_page: u64) {
        let (word, _) = self.locate(disk_page);
        prefetch_read(self.words.as_ptr().wrapping_add(word).cast());
    }

    /// Whether `disk_page` has earned a read-miss fill.
    pub fn admit_fill(&self, disk_page: u64) -> bool {
        self.estimate(disk_page) > self.bar
    }

    /// Counts a flash-level read of `disk_page`, hit or miss, before its
    /// lookup. Conservative update: only the counters at the page's
    /// minimum rise, so a colliding page's higher counters are left alone.
    /// Returns whether this read halved the sketch.
    pub fn count_read(&mut self, disk_page: u64) -> bool {
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

    /// Sets the bar to the upper-median estimate of the pages an eviction
    /// from the region read fills land in drops.
    pub fn observe_eviction(&mut self, dropped: impl Iterator<Item = u64>) {
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

    /// The estimate a read-miss fill has to exceed (0 until an eviction).
    pub fn bar(&self) -> u8 {
        self.bar
    }
}

/// The least of word `w`'s counters at bit offsets `at`.
fn least(w: u64, at: [u32; 4]) -> u64 {
    at.iter().fold(15, |min, s| min.min((w >> s) & 15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_tests::small_config;
    use crate::{AdmissionDecision, AdmissionPolicyConfig, CacheOp, FlashCache};

    /// A cache configured with the paper's rule holds no sketch: nothing
    /// is counted, nothing ages, no eviction sets a bar, and every miss
    /// of a scan that makes the read region evict is filled.
    #[test]
    fn admit_all_admits_everything() {
        let mut config = small_config();
        config.admission = AdmissionPolicyConfig::AdmitAll;
        let mut cache = FlashCache::new(config).unwrap();
        assert!(cache.admission.is_none());
        for page in 0..3_000u64 {
            let out = cache.op(CacheOp::read(page % 1_000));
            assert_ne!(out.admission, AdmissionDecision::Rejected);
            cache.op(CacheOp::write(page % 7));
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "the scan outran the read region");
        assert_eq!(stats.admission_rejected_fills, 0);
        assert_eq!(stats.admission_sketch_halvings, 0);
        assert_eq!(cache.admission_bar(), 0);
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

    /// A counted miss clears a bar of 0, and after an eviction a fill
    /// needs more reads than the median dropped page.
    #[test]
    fn rereference_fill_must_out_read_the_evicted_median() {
        let mut p = FrequencySketch::new(1000);
        assert!(!p.admit_fill(7), "an uncounted page estimates 0");
        p.count_read(7);
        assert!(p.admit_fill(7), "before any eviction every miss fills");
        count(&mut p, 8, 3);
        count(&mut p, 9, 5);
        p.observe_eviction([7u64, 8, 9].into_iter());
        assert_eq!(p.bar(), 3, "the median of 1, 3, 5");
        assert!(!p.admit_fill(8), "as hot as the bar is not hotter");
        count(&mut p, 8, 1);
        assert!(p.admit_fill(8));
        // An even count takes the upper middle; nothing dropped, no news.
        p.observe_eviction([7u64, 9].into_iter());
        assert_eq!(p.bar(), 5);
        p.observe_eviction(std::iter::empty());
        assert_eq!(p.bar(), 5);
    }

    /// Counts reads of `filler` until one of them halves the sketch.
    fn age(s: &mut FrequencySketch, filler: u64) {
        while !s.count_read(filler) {}
    }

    #[test]
    fn rereference_history_survives_one_rotation() {
        let mut s = FrequencySketch::new(4096);
        count(&mut s, page(0), 9);
        s.observe_eviction([page(0)].into_iter());
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
        s.observe_eviction([page(0)].into_iter());
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
            s.observe_eviction((0..128).map(page));
            (aged, s.words, s.reads, s.bar)
        };
        assert_eq!(run(), run());
    }
}
