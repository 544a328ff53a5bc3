//! Property-based byte-identity tests for the batched cache-op path.
//!
//! **Batch = scalar.** [`FlashCache::op_batch`] must be byte-identical
//! to looping [`FlashCache::op`] — same outcomes in the same order,
//! same snapshot, same stats, same exported metrics — for *every* batch
//! size and every admission policy. The pipeline only issues prefetch
//! hints, so nothing observable may change (DESIGN.md, core tables).
//! The SWAR-vs-bytewise probe lock-step lives in `flashcache-core`'s
//! `tables` unit tests, next to the `#[cfg(test)]` byte-wise reference.

use proptest::prelude::*;

use flashcache::nand::{FlashConfig, FlashGeometry};
use flashcache::{AdmissionPolicyConfig, CacheOp, FlashCache, FlashCacheConfig};

/// A small cache so arbitrary op sequences exercise fills, evictions,
/// reclaim, and FCHT backward-shift deletion, not just cold inserts.
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

/// Asserts every externally observable surface of the two caches is
/// equal: snapshot (tables, regions, wear), stats, and the exported
/// metrics registry (which includes the FCHT probe counters).
fn assert_observably_equal(a: &FlashCache, b: &FlashCache) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.snapshot(), b.snapshot());
    prop_assert_eq!(a.stats(), b.stats());
    prop_assert_eq!(a.export_metrics(), b.export_metrics());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `op_batch` is byte-identical to the scalar `op` loop for every
    /// chunking of the op stream, under every admission policy.
    #[test]
    fn op_batch_matches_scalar_for_all_batch_sizes(
        ops in prop::collection::vec(op_strategy(120), 1..300),
        admission in admission_strategy(),
        // 1 and 2 degenerate the pipeline; 7 straddles the prefetch
        // window; usize::MAX clamps to a single whole-trace batch.
        chunk in prop_oneof![Just(1usize), Just(2), Just(7), Just(usize::MAX)],
    ) {
        let mut scalar = tiny_cache(admission);
        let mut batched = tiny_cache(admission);

        let mut scalar_outs = Vec::with_capacity(ops.len());
        for &op in &ops {
            scalar_outs.push(scalar.op(op));
        }

        let chunk = chunk.min(ops.len());
        let mut batched_outs = Vec::with_capacity(ops.len());
        for group in ops.chunks(chunk) {
            batched.op_batch_into(group, &mut batched_outs);
        }

        prop_assert_eq!(scalar_outs, batched_outs);
        assert_observably_equal(&scalar, &batched)?;
    }
}

/// Deterministic spot-check that `op_batch_into` appends (does not
/// clear) and that the empty batch is a no-op — the contract hot loops
/// rely on when reusing one outcome buffer across chunks.
#[test]
fn op_batch_into_appends_and_handles_empty() {
    let mut cache = tiny_cache(AdmissionPolicyConfig::AdmitAll);
    let mut out = Vec::new();
    cache.op_batch_into(&[], &mut out);
    assert!(out.is_empty());
    cache.op_batch_into(&[CacheOp::write(3)], &mut out);
    cache.op_batch_into(&[CacheOp::read(3)], &mut out);
    assert_eq!(out.len(), 2);
    assert!(out[1].access.hit, "write(3) then read(3) must hit");
}
