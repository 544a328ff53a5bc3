//! Differential property test of the incremental reclaim index.
//!
//! Random read/write/flush workloads drive a small cache hard past
//! capacity, so every trajectory exercises GC compaction, block-LRU
//! eviction, wear-level swaps, and (on long runs) retirement. After
//! every operation, `check_invariants` cross-checks the index contents
//! against an FBST recount *and* replays all four victim queries on
//! both the index and the retained O(blocks) scan oracles, requiring
//! the same block from each.

use proptest::prelude::*;

use flashcache_core::{CacheOp, FlashCache, FlashCacheConfig, SplitPolicy};
use nand_flash::{FlashConfig, FlashGeometry, WearConfig};

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
    Flush,
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..pages).prop_map(Op::Read),
        4 => (0..pages).prop_map(Op::Write),
        1 => Just(Op::Flush),
    ]
}

fn tiny_config(blocks: u32, unified: bool) -> FlashCacheConfig {
    FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks,
                pages_per_block: 4,
            },
            ..FlashConfig::default()
        },
        split: if unified {
            SplitPolicy::Unified
        } else {
            SplitPolicy::default()
        },
        // Low threshold so wear-level swaps actually trigger within a
        // few hundred operations on a tiny device.
        wear_threshold: 8.0,
        ..FlashCacheConfig::default()
    }
}

fn run_workload(mut cache: FlashCache, ops: &[Op]) -> Result<(), TestCaseError> {
    for (i, op) in ops.iter().enumerate() {
        match *op {
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
        if let Err(e) = cache.check_invariants() {
            return Err(TestCaseError::fail(format!("after op {i} {op:?}: {e}")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Split-region cache: index victims carry the same keys as the
    /// scan oracles across randomized workloads.
    #[test]
    fn index_matches_scan_oracles_split(
        blocks in 8u32..24,
        ops in prop::collection::vec(op_strategy(160), 50..400),
    ) {
        let cache = FlashCache::new(tiny_config(blocks, false)).unwrap();
        run_workload(cache, &ops)?;
    }

    /// Unified pool: same differential with every block folded onto the
    /// read region.
    #[test]
    fn index_matches_scan_oracles_unified(
        blocks in 8u32..24,
        ops in prop::collection::vec(op_strategy(160), 50..400),
    ) {
        let cache = FlashCache::new(tiny_config(blocks, true)).unwrap();
        run_workload(cache, &ops)?;
    }
}

/// Driving a tiny cache to total wear-out keeps index and oracles in
/// agreement through every retirement, including the endgame where the
/// spare blocks are consumed.
#[test]
fn index_consistent_through_wear_out() {
    let mut config = tiny_config(8, false);
    // Heavy acceleration so the device dies within the test budget.
    config.flash.wear = WearConfig::default().accelerated(1e6);
    let mut cache = FlashCache::new(config).unwrap();
    let mut i = 0u64;
    while !cache.is_dead() && i < 200_000 {
        cache.op(CacheOp::write(i % 64));
        if i.is_multiple_of(512) {
            cache.check_invariants().unwrap();
        }
        i += 1;
    }
    cache.check_invariants().unwrap();
    assert!(
        cache.stats().retired_blocks > 0,
        "workload never retired a block"
    );
}
