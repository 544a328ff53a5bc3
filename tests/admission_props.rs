//! Property tests for the admission stage.
//!
//! The load-bearing contract: `AdmitAll` is the paper-faithful oracle,
//! and the default frequency rule is byte-identical to it until the
//! region read fills land in has had to evict. On top of that,
//! structural invariants must survive both policies on both lane
//! shapes. The typed-op surface the stage reports through —
//! `CacheOutcome::admission` and the `ctx` round trip — is pinned at
//! the end.

use proptest::prelude::*;

use flashcache::core::AdmissionPolicyConfig;
use flashcache::core::SplitPolicy;
use flashcache::nand::{ChannelConfig, FlashConfig, FlashGeometry};
use flashcache::{CacheOp, FlashCache, FlashCacheConfig};

fn small_config() -> FlashCacheConfig {
    FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 16,
                pages_per_block: 8,
            },
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    }
}

/// The same 256 slots on a 4-channel x 2-plane device, cut into 64
/// blocks with half of them the write region, so that both regions'
/// write frontiers are 4 blocks wide.
fn striped_config() -> FlashCacheConfig {
    let mut config = small_config();
    config.flash.geometry.blocks = 64;
    config.flash.geometry.pages_per_block = 2;
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
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The default gate is invisible until the cache has evicted from
    /// the region read fills land in: fewer ops than the read region has
    /// slots (13 x 16) cannot force that, the bar stays 0, and the
    /// untouched default config produces the same snapshot and stats as
    /// the paper's rule — explicit `AdmitAll`, one log head per region.
    #[test]
    fn admit_all_single_bucket_is_the_identity(
        ops in prop::collection::vec(op_strategy(300), 1..190),
    ) {
        let mut default_cache = FlashCache::new(small_config()).unwrap();
        let mut explicit = small_config();
        explicit.admission = AdmissionPolicyConfig::AdmitAll;
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
    }

    /// Structural invariants hold for every policy × lane-shape combo
    /// (serial, and 4 channels × 2 planes with a striped write frontier)
    /// under arbitrary op sequences.
    #[test]
    fn invariants_hold_under_any_policy(
        ops in prop::collection::vec(op_strategy(300), 1..400),
        policy in policy_strategy(),
        striped in any::<bool>(),
    ) {
        let mut config = if striped { striped_config() } else { small_config() };
        config.admission = policy;
        let mut cache = FlashCache::new(config).unwrap();
        for region in &cache.snapshot().regions {
            prop_assert_eq!(region.open_blocks.len(), if striped { 4 } else { 1 });
        }
        for &op in &ops {
            apply(&mut cache, op);
        }
        cache.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("invariant violated: {e}"))
        })?;
        // The cache still serves after the sequence.
        let out = cache.op(CacheOp::read(0)).access;
        prop_assert!(out.hit || out.bypassed || cache.contains(0));
    }

    /// No dirty page leaves flash without a flush being reported: for
    /// every policy on the striped device, after each op the pages that
    /// were dirty in flash and are no longer cached are exactly as many
    /// as the op reported flushed — an eviction, a compaction dropping
    /// unread pages and a failed promotion all go through the same
    /// accounting — so every page ever written is cached or has been
    /// reported flushed since its last write.
    #[test]
    fn no_dirty_page_leaves_flash_unreported(
        ops in prop::collection::vec(op_strategy(300), 1..600),
        policy in policy_strategy(),
    ) {
        let mut config = striped_config();
        config.admission = policy;
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

#[test]
fn admission_rejections_are_counted_per_op() {
    let rejected = |cache: &FlashCache| cache.stats().admission_rejected_fills;

    // AdmitAll (the paper's §5.1 rule): fills and writes are admitted;
    // flash read hits never reach the admission stage.
    let mut config = small_config();
    config.admission = AdmissionPolicyConfig::AdmitAll;
    let mut cache = FlashCache::new(config).unwrap();
    cache.op(CacheOp::read(3));
    assert_eq!(rejected(&cache), 0, "cold fill is admitted");
    assert!(cache.op(CacheOp::read(3)).access.hit, "the fill cached it");
    assert_eq!(rejected(&cache), 0, "flash hit bypasses admission");
    cache.op(CacheOp::write(4));
    assert_eq!(rejected(&cache), 0);

    // The default (ours, not the paper's): a first touch is admitted
    // until the read region has had to evict.
    let mut cache = FlashCache::new(small_config()).unwrap();
    cache.op(CacheOp::read(9));
    assert_eq!(rejected(&cache), 0);
    // A one-pass scan forces that eviction; from then on a page read
    // once is rejected (it is no hotter than what the scan pushed out),
    // read twice it is admitted, and host writes are admitted throughout.
    for p in 1_000..1_250 {
        cache.op(CacheOp::read(p));
    }
    let scanned = rejected(&cache);
    assert!(scanned > 0, "the scan outran the read region");
    assert_eq!(cache.admission_bar(), 1);
    let first = cache.op(CacheOp::read(2_000));
    assert_eq!(rejected(&cache), scanned + 1);
    assert!(!first.access.hit, "rejected fill still serves");
    assert!(first.access.bypassed);
    cache.op(CacheOp::read(2_000));
    assert_eq!(rejected(&cache), scanned + 1);
    assert!(cache.op(CacheOp::read(2_000)).access.hit);
    cache.op(CacheOp::write(2_001));
    assert_eq!(rejected(&cache), scanned + 1);
    assert!(cache.op(CacheOp::read(2_001)).access.hit);
}

#[test]
fn cache_op_constructors_roundtrip() {
    use flashcache::CacheOpKind;

    let r = CacheOp::read(42);
    assert_eq!(r.lba, 42);
    assert_eq!(r.kind, CacheOpKind::Read);
    let w = CacheOp::write(7);
    assert_eq!(w.kind, CacheOpKind::Write);
}
