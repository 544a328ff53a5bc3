//! Write-minimizing admission control and longevity-aware placement.
//!
//! The paper admits every DRAM-evicted page into the flash cache; the
//! related work shows most of those flash writes are avoidable.
//! [`AdmissionPolicy`] gates what may enter flash at all — modelled on
//! Flashield's "prove re-read-worthiness in DRAM first" ghost counters
//! and WLFC's "just write less" bandwidth cap — while [`Longevity`]
//! chooses *where* admitted writes land: per-bucket open blocks in the
//! write region keyed by predicted re-write interval, so short-lived
//! pages co-locate and invalidate whole blocks together, cutting GC
//! write amplification.
//!
//! The default [`AdmitAll`] policy with a single longevity bucket is
//! the paper-faithful oracle: it reproduces pre-admission behaviour
//! byte for byte (the differential tests in `tests/admission_props.rs`
//! hold the gate shut).

use std::fmt;

use crate::config::AdmissionPolicyConfig;
use nand_flash::fxhash::FxHashMap;

/// Decides, per access, whether a page may occupy flash space.
///
/// Policies see the cache's logical access clock (`tick`), so their
/// decay windows are measured in accesses — the same time base as the
/// FPST access-counter decay.
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// Whether a read-miss fill of `disk_page` may be cached in flash.
    fn admit_fill(&mut self, disk_page: u64, tick: u64) -> bool;

    /// Whether a host write of `disk_page` may be programmed into the
    /// write region.
    fn admit_write(&mut self, disk_page: u64, tick: u64) -> bool;

    /// Whether a write hitting an already-dirty cached copy may be
    /// absorbed in place without a reprogram (the flash already owes
    /// that page's flush, so the overwrite carries no new obligation).
    fn coalesces_dirty_overwrites(&self) -> bool {
        false
    }
}

/// The paper-faithful default: every fill and write is admitted.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn admit_fill(&mut self, _disk_page: u64, _tick: u64) -> bool {
        true
    }

    fn admit_write(&mut self, _disk_page: u64, _tick: u64) -> bool {
        true
    }
}

/// Two-generation ghost table: per-page counters for pages *not yet*
/// (or no longer) proven cache-worthy. Rotating generations bounds the
/// table to roughly the pages touched in two windows and implements
/// decay without a sweep — a counter survives at most one rotation.
#[derive(Debug)]
struct GhostCounters {
    window: u64,
    epoch_start: u64,
    cur: FxHashMap<u64, u8>,
    prev: FxHashMap<u64, u8>,
}

impl GhostCounters {
    fn new(window: u64) -> Self {
        GhostCounters {
            window: window.max(1),
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

    /// Bumps `page`'s counter (seeding from the previous generation on
    /// first touch this window) and returns the new count.
    fn bump(&mut self, page: u64, tick: u64) -> u8 {
        self.rotate_if_due(tick);
        let seed = self.prev.get(&page).copied().unwrap_or(0);
        let c = self.cur.entry(page).or_insert(seed);
        *c = c.saturating_add(1);
        *c
    }
}

/// Flashield-style re-reference admission: a page must be touched `k`
/// more times within the decay window after its first appearance before
/// it earns flash space. One-hit wonders never reach the flash, so the
/// device stops burning program/erase cycles on pages that would have
/// been evicted before their second read anyway.
#[derive(Debug)]
pub struct ReReference {
    k: u8,
    ghosts: GhostCounters,
}

impl ReReference {
    /// Builds the policy: admit after `k` re-references within `window`
    /// accesses (both validated nonzero by the config layer).
    pub fn new(k: u8, window: u64) -> Self {
        ReReference {
            k,
            ghosts: GhostCounters::new(window),
        }
    }
}

impl AdmissionPolicy for ReReference {
    fn admit_fill(&mut self, disk_page: u64, tick: u64) -> bool {
        // First touch counts 1; the page needs k further touches.
        self.ghosts.bump(disk_page, tick) > self.k
    }

    fn admit_write(&mut self, disk_page: u64, tick: u64) -> bool {
        self.ghosts.bump(disk_page, tick) > self.k
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
    fn admit_fill(&mut self, _disk_page: u64, _tick: u64) -> bool {
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

/// Instantiates the policy a config selects.
pub fn build_policy(config: &AdmissionPolicyConfig) -> Box<dyn AdmissionPolicy> {
    match *config {
        AdmissionPolicyConfig::AdmitAll => Box::new(AdmitAll),
        AdmissionPolicyConfig::ReReference { k, window } => Box::new(ReReference::new(k, window)),
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
    /// Last-write tick per page, two generations (bounded like the
    /// ghost counters).
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
        assert!(p.admit_fill(1, 0));
        assert!(p.admit_write(2, u64::MAX));
        assert!(!p.coalesces_dirty_overwrites());
    }

    #[test]
    fn rereference_requires_k_rereads() {
        let mut p = ReReference::new(2, 1000);
        assert!(!p.admit_fill(7, 1)); // first touch
        assert!(!p.admit_fill(7, 2)); // first re-read
        assert!(p.admit_fill(7, 3)); // second re-read: admitted
        assert!(!p.admit_write(8, 3), "independent pages count separately");
    }

    #[test]
    fn rereference_counters_decay_after_two_windows() {
        let mut p = ReReference::new(1, 10);
        assert!(!p.admit_fill(5, 0));
        // Two rotations later the page's history is gone.
        assert!(!p.admit_fill(99, 10)); // rotates: cur -> prev
        assert!(!p.admit_fill(98, 20)); // rotates: page 5 dropped
        assert!(!p.admit_fill(5, 21), "history decayed; back to square one");
        assert!(p.admit_fill(5, 22));
    }

    #[test]
    fn rereference_history_survives_one_rotation() {
        let mut p = ReReference::new(1, 10);
        assert!(!p.admit_fill(5, 0));
        // One rotation: the count seeds from the previous generation.
        assert!(p.admit_fill(5, 12));
    }

    #[test]
    fn writecap_bounds_admitted_writes_per_window() {
        let mut p = WriteCap::new(3, 100, false);
        let admitted = (0..10).filter(|i| p.admit_write(*i, 50)).count();
        assert_eq!(admitted, 3);
        // Next window refills the bucket.
        assert!(p.admit_write(11, 150));
        // Fills are never capped.
        assert!(p.admit_fill(12, 150));
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
        let p = build_policy(&AdmissionPolicyConfig::AdmitAll);
        assert!(format!("{p:?}").contains("AdmitAll"));
        let p = build_policy(&AdmissionPolicyConfig::ReReference { k: 1, window: 10 });
        assert!(format!("{p:?}").contains("ReReference"));
        let p = build_policy(&AdmissionPolicyConfig::WriteCap {
            pages_per_window: 4,
            window: 10,
            coalesce: true,
        });
        assert!(p.coalesces_dirty_overwrites());
    }
}
