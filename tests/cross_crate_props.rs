//! Property-based tests spanning crates: arbitrary operation sequences
//! against the cache hierarchy must preserve structural invariants and
//! model-level contracts.

use proptest::prelude::*;

use flashcache::ecc::page::{PageCodec, PAGE_DATA_BYTES};
use flashcache::nand::{FlashConfig, FlashGeometry};
use flashcache::reliability::CellLifetimeModel;
use flashcache::{CacheOp, FlashCache, FlashCacheConfig, SplitPolicy};

fn tiny_cache(split_write_fraction: Option<f64>) -> FlashCache {
    FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 8,
                pages_per_block: 4,
            },
            ..FlashConfig::default()
        },
        split: match split_write_fraction {
            None => SplitPolicy::Unified,
            Some(wf) => SplitPolicy::Split { write_fraction: wf },
        },
        ..FlashCacheConfig::default()
    })
    .expect("valid config")
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of reads/writes/flushes leaves the cache's tables
    /// mutually consistent (FCHT ↔ FPST ↔ FBST ↔ region counters ↔
    /// device state).
    #[test]
    fn cache_invariants_hold_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(300), 1..400),
        write_fraction in prop_oneof![Just(None), (0.05f64..0.6).prop_map(Some)],
    ) {
        let mut cache = tiny_cache(write_fraction);
        for op in &ops {
            match *op {
                Op::Read(p) => { cache.op(CacheOp::read(p)); }
                Op::Write(p) => { cache.op(CacheOp::write(p)); }
                Op::Flush => { cache.flush_writes(); }
            }
        }
        cache.check_invariants().map_err(|e| {
            TestCaseError::fail(format!("invariant violated: {e}"))
        })?;
        // A read after the sequence always succeeds (hit or clean miss).
        let out = cache.op(CacheOp::read(0)).access;
        prop_assert!(out.hit || out.needs_disk_read);
    }

    /// Reading back immediately after a successful write always hits:
    /// the cache never loses an acknowledged write without reporting a
    /// flush or bypass.
    #[test]
    fn write_then_read_hits(
        warm in prop::collection::vec(op_strategy(200), 0..200),
        page in 0u64..200,
    ) {
        let mut cache = tiny_cache(Some(0.25));
        for op in &warm {
            match *op {
                Op::Read(p) => { cache.op(CacheOp::read(p)); }
                Op::Write(p) => { cache.op(CacheOp::write(p)); }
                Op::Flush => { cache.flush_writes(); }
            }
        }
        let w = cache.op(CacheOp::write(page)).access;
        if !w.bypassed {
            prop_assert!(cache.op(CacheOp::read(page)).access.hit, "acknowledged write must be readable");
        }
    }

    /// The real page codec corrects any error pattern up to its strength
    /// regardless of where the errors land.
    #[test]
    fn page_codec_corrects_within_strength(
        t in 1usize..=6,
        seed_byte in 0u8..=255,
        positions in prop::collection::btree_set(0usize..PAGE_DATA_BYTES * 8, 0..=6),
    ) {
        prop_assume!(positions.len() <= t);
        let codec = PageCodec::new(t).unwrap();
        let original: Vec<u8> = (0..PAGE_DATA_BYTES)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed_byte))
            .collect();
        let spare = codec.encode(&original);
        let mut corrupted = original.clone();
        for &bit in &positions {
            corrupted[bit / 8] ^= 1 << (7 - bit % 8);
        }
        let outcome = codec.decode(&mut corrupted, &spare);
        prop_assert!(outcome.is_ok(), "{} errors at t={} must decode", positions.len(), t);
        prop_assert_eq!(corrupted, original);
    }

    /// The lifetime model is scale-consistent: accelerating by a·b is
    /// the same as accelerating by a then by b.
    #[test]
    fn acceleration_composes(
        a in 1.0f64..1e4,
        b in 1.0f64..1e4,
        p in 1e-6f64..0.999,
    ) {
        let m = CellLifetimeModel::default();
        let once = m.accelerated(a * b).quantile(p);
        let twice = m.accelerated(a).accelerated(b).quantile(p);
        prop_assert!((once / twice - 1.0).abs() < 1e-9);
    }
}
