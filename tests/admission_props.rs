//! Property and storm tests for the admission/longevity stage.
//!
//! The load-bearing contract: `AdmitAll` with a single longevity bucket
//! is the paper-faithful oracle, and the default frequency rule is
//! byte-identical to it until the region read fills land in has had to
//! evict. On top of that, structural invariants must survive every
//! policy and bucket count, and `WriteCap` must actually bound the
//! admitted write bytes while leaving read caching untouched. The
//! typed-op surface the stage reports through — `CacheOutcome::admission` and the `ctx`
//! round trip — is pinned at the end.

use proptest::prelude::*;

use flashcache::core::AdmissionPolicyConfig;
use flashcache::core::SplitPolicy;
use flashcache::nand::{ChannelConfig, FlashConfig, FlashGeometry, TimingBackend};
use flashcache::{CacheOp, FlashCache, FlashCacheConfig};

fn small_config() -> FlashCacheConfig {
    FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 16,
                pages_per_block: 8,
                ..FlashGeometry::default()
            },
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    }
}

/// The same 256 slots on a 4-channel x 2-plane device, cut into 64
/// blocks with half of them the write region, so that both regions'
/// write frontiers are several blocks wide (4 in the read region; 4, 2
/// or 1 per bucket in the write region).
fn striped_config() -> FlashCacheConfig {
    let mut config = small_config();
    config.flash.geometry.blocks = 64;
    config.flash.geometry.pages_per_block = 2;
    config.flash.timing_backend = TimingBackend::EventDriven;
    config.flash.channel = ChannelConfig::builder()
        .channels(4)
        .planes(2)
        .queue_depth(4)
        .build()
        .unwrap();
    config.split = SplitPolicy::Split {
        write_fraction: 0.5,
    };
    config
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
    Flush,
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..pages).prop_map(Op::Read),
        4 => (0..pages).prop_map(Op::Write),
        1 => Just(Op::Flush),
    ]
}

fn apply(cache: &mut FlashCache, op: Op) {
    match op {
        Op::Read(p) => {
            cache.op(CacheOp::read(p));
        }
        Op::Write(p) => {
            cache.op(CacheOp::write(p));
        }
        Op::Flush => {
            cache.flush_writes();
        }
    }
}

fn policy_strategy() -> impl Strategy<Value = AdmissionPolicyConfig> {
    prop_oneof![
        Just(AdmissionPolicyConfig::AdmitAll),
        Just(AdmissionPolicyConfig::ReReference),
        (1u64..64, 16u64..2048, any::<bool>()).prop_map(|(pages_per_window, window, coalesce)| {
            AdmissionPolicyConfig::WriteCap {
                pages_per_window,
                window,
                coalesce,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The default gate is invisible until the cache has evicted from
    /// the region read fills land in: fewer ops than the read region has
    /// slots (13 x 16) cannot force that, the bar stays 0, and the
    /// untouched default config produces the same snapshot and stats as
    /// the paper's rule — explicit `AdmitAll` + 1 longevity bucket.
    #[test]
    fn admit_all_single_bucket_is_the_identity(
        ops in prop::collection::vec(op_strategy(300), 1..190),
    ) {
        let mut default_cache = FlashCache::new(small_config()).unwrap();
        let mut explicit = small_config();
        explicit.admission = AdmissionPolicyConfig::AdmitAll;
        explicit.longevity_buckets = 1;
        let mut explicit_cache = FlashCache::new(explicit).unwrap();
        for &op in &ops {
            apply(&mut default_cache, op);
            apply(&mut explicit_cache, op);
        }
        prop_assert_eq!(default_cache.admission_bar(), 0);
        prop_assert_eq!(default_cache.snapshot(), explicit_cache.snapshot());
    }

    /// Under `AdmitAll` (the paper's rule) the admission counters never
    /// move.
    #[test]
    fn admit_all_never_rejects(
        ops in prop::collection::vec(op_strategy(200), 1..200),
    ) {
        let mut config = small_config();
        config.admission = AdmissionPolicyConfig::AdmitAll;
        let mut cache = FlashCache::new(config).unwrap();
        for &op in &ops {
            apply(&mut cache, op);
        }
        let s = cache.stats();
        prop_assert_eq!(s.admission_rejected_fills, 0);
        prop_assert_eq!(s.admission_sketch_halvings, 0);
        prop_assert_eq!(cache.admission_bar(), 0);
        prop_assert_eq!(s.admission_rejected_writes, 0);
        prop_assert_eq!(s.admission_coalesced_writes, 0);
    }

    /// Structural invariants hold for every policy × bucket-count ×
    /// lane-shape combo (serial, and 4 channels × 2 planes with a
    /// striped write frontier) under arbitrary op sequences.
    #[test]
    fn invariants_hold_under_any_policy(
        ops in prop::collection::vec(op_strategy(300), 1..400),
        policy in policy_strategy(),
        buckets in 1u32..6,
        striped in any::<bool>(),
    ) {
        let mut config = if striped { striped_config() } else { small_config() };
        config.admission = policy;
        config.longevity_buckets = buckets;
        let mut cache = FlashCache::new(config).unwrap();
        let frontier = cache.snapshot().regions[0].open_blocks.len();
        prop_assert_eq!(frontier, if striped { 4 } else { 1 });
        for &op in &ops {
            apply(&mut cache, op);
        }
        cache.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("invariant violated: {e}"))
        })?;
        // The cache still serves after the sequence.
        let out = cache.op(CacheOp::read(0)).access;
        prop_assert!(out.hit || out.needs_disk_read);
    }

    /// No dirty page leaves flash without a flush being reported: for
    /// every policy x bucket count on the striped device, after each op
    /// the pages that were dirty in flash and are no longer cached are
    /// exactly as many as the op reported flushed — an eviction, a
    /// compaction dropping unread pages and a failed promotion all go
    /// through the same accounting — so every page ever written is
    /// cached or has been reported flushed since its last write.
    #[test]
    fn no_dirty_page_leaves_flash_unreported(
        ops in prop::collection::vec(op_strategy(300), 1..600),
        policy in policy_strategy(),
        buckets in 1u32..6,
    ) {
        let mut config = striped_config();
        config.admission = policy;
        config.longevity_buckets = buckets;
        let mut cache = FlashCache::new(config).unwrap();
        // Pages whose newest data is in flash only.
        let mut dirty = std::collections::BTreeSet::new();
        for (i, &op) in ops.iter().enumerate() {
            let flushed = match op {
                Op::Read(p) => cache.op(CacheOp::read(p)).access.flushed_dirty,
                Op::Write(p) => {
                    let out = cache.op(CacheOp::write(p)).access;
                    // A bypassed write is the caller's disk write.
                    if out.bypassed {
                        dirty.remove(&p);
                    } else {
                        dirty.insert(p);
                    }
                    out.flushed_dirty
                }
                Op::Flush => {
                    prop_assert_eq!(cache.flush_writes(), dirty.len() as u64);
                    dirty.clear();
                    0
                }
            };
            let left = dirty.iter().filter(|&&p| !cache.contains(p)).count();
            prop_assert_eq!(left, flushed as usize, "op {} ({:?})", i, op);
            dirty.retain(|&p| cache.contains(p));
            if i % 64 == 0 {
                cache.check_invariants().map_err(TestCaseError::fail)?;
            }
        }
        prop_assert_eq!(cache.flush_writes(), dirty.len() as u64);
        cache.check_invariants().map_err(TestCaseError::fail)?;
    }
}

/// A write storm cannot push more than the cap's allowance into flash,
/// and the pages cached by reads beforehand keep hitting throughout.
#[test]
fn write_cap_bounds_flash_write_bytes_under_storm() {
    const CAP: u64 = 8;
    const WINDOW: u64 = 128;
    let mut config = small_config();
    config.admission = AdmissionPolicyConfig::WriteCap {
        pages_per_window: CAP,
        window: WINDOW,
        coalesce: false,
    };
    let mut cache = FlashCache::new(config).unwrap();
    let page_bytes = u64::from(cache.device().geometry().page_data_bytes);

    // Pre-fill a handful of read pages (fills are never capped)...
    let warm: Vec<u64> = (0..8).collect();
    for &p in &warm {
        cache.op(CacheOp::read(p));
        assert!(cache.op(CacheOp::read(p)).access.hit);
    }
    assert_eq!(cache.stats().admission_bytes_written, 0, "fills are free");

    // ...then storm distinct pages far beyond the cap.
    for p in 0..4_000u64 {
        cache.op(CacheOp::write(1_000 + p));
    }
    let s = cache.stats();
    // Token-bucket allowance: one refill per touched window plus the
    // initial grant bounds the admitted write bytes.
    let windows = cache.tick() / WINDOW + 1;
    let allowance_bytes = windows * CAP * page_bytes;
    assert!(
        s.admission_bytes_written <= allowance_bytes,
        "cap breached: {} bytes admitted, allowance {}",
        s.admission_bytes_written,
        allowance_bytes
    );
    assert!(
        s.admission_rejected_writes > 3_000,
        "most storm writes must bounce: {} rejected",
        s.admission_rejected_writes
    );

    // The read working set survived the storm.
    for &p in &warm {
        assert!(
            cache.op(CacheOp::read(p)).access.hit,
            "pre-filled page {p} must still hit after the storm"
        );
    }
    cache.check_invariants().unwrap();
}

#[test]
fn outcome_reports_admission_decisions() {
    use flashcache::AdmissionDecision;

    // AdmitAll (the paper's §5.1 rule): fills and writes are admitted;
    // flash read hits never reach the admission stage.
    let mut config = small_config();
    config.admission = AdmissionPolicyConfig::AdmitAll;
    let mut cache = FlashCache::new(config).unwrap();
    assert_eq!(
        cache.op(CacheOp::read(3)).admission,
        AdmissionDecision::Admitted,
        "cold fill is admitted"
    );
    assert_eq!(
        cache.op(CacheOp::read(3)).admission,
        AdmissionDecision::NotApplicable,
        "flash hit bypasses admission"
    );
    assert_eq!(
        cache.op(CacheOp::write(4)).admission,
        AdmissionDecision::Admitted
    );
    assert_eq!(cache.stats().admission_rejected_fills, 0);
    assert_eq!(cache.stats().admission_rejected_writes, 0);

    // The default (ours, not the paper's): a first touch is admitted
    // until the read region has had to evict.
    let mut cache = FlashCache::new(small_config()).unwrap();
    assert_eq!(
        cache.op(CacheOp::read(9)).admission,
        AdmissionDecision::Admitted
    );
    // A one-pass scan forces that eviction; from then on a page read
    // once is rejected (it is no hotter than what the scan pushed out),
    // read twice it is admitted, and host writes are admitted throughout.
    for p in 1_000..1_250 {
        cache.op(CacheOp::read(p));
    }
    let rejected = cache.stats().admission_rejected_fills;
    assert!(rejected > 0, "the scan outran the read region");
    assert_eq!(cache.admission_bar(), 1);
    let first = cache.op(CacheOp::read(2_000));
    assert_eq!(first.admission, AdmissionDecision::Rejected);
    assert!(first.access.needs_disk_read, "rejected fill still serves");
    assert!(!first.access.hit && first.access.bypassed);
    let reread = cache.op(CacheOp::read(2_000));
    assert_eq!(reread.admission, AdmissionDecision::Admitted);
    assert!(cache.op(CacheOp::read(2_000)).access.hit);
    assert_eq!(cache.stats().admission_rejected_fills, rejected + 1);
    assert_eq!(
        cache.op(CacheOp::write(2_001)).admission,
        AdmissionDecision::Admitted
    );
    assert_eq!(cache.stats().admission_rejected_writes, 0);

    // WriteCap with coalescing: a dirty overwrite is absorbed in place.
    let mut config = small_config();
    config.admission = AdmissionPolicyConfig::WriteCap {
        pages_per_window: 64,
        window: 1024,
        coalesce: true,
    };
    let mut cache = FlashCache::new(config).unwrap();
    assert_eq!(
        cache.op(CacheOp::write(5)).admission,
        AdmissionDecision::Admitted
    );
    let again = cache.op(CacheOp::write(5));
    assert_eq!(again.admission, AdmissionDecision::Coalesced);
    assert!(again.access.hit, "coalesced overwrite is a flash hit");
    assert_eq!(cache.stats().admission_coalesced_writes, 1);
}

#[test]
fn cache_op_constructors_roundtrip() {
    use flashcache::CacheOpKind;

    let r = CacheOp::read(42);
    assert_eq!(r.lba, 42);
    assert_eq!(r.kind, CacheOpKind::Read);
    let w = CacheOp::write(7);
    assert_eq!(w.kind, CacheOpKind::Write);
    let ctx = flashcache::nand::OpContext::background();
    assert_eq!(w.with_ctx(ctx).ctx, ctx);
}
