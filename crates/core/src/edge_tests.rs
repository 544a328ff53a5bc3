//! Edge-case and failure-injection tests for the flash cache: extreme
//! geometries, soft-error storms, region exhaustion, mode interactions,
//! and recovery behaviour.

use flash_ecc::EccLatencyModel;
use nand_flash::{FlashConfig, FlashGeometry, WearConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::{CacheOp, FlashCache};
use crate::config::{ControllerPolicy, FlashCacheConfig, SplitPolicy};

fn geometry(blocks: u32, pages_per_block: u32) -> FlashGeometry {
    FlashGeometry {
        blocks,
        pages_per_block,
    }
}

#[test]
fn minimum_viable_geometry_works() {
    // The smallest configuration validation allows: 4 blocks.
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(4, 2),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    for p in 0..50u64 {
        c.op(CacheOp::read(p));
        c.op(CacheOp::write(p + 100));
    }
    c.check_invariants().unwrap();
    // Ours, not the paper's: the read region's first eviction dropped
    // once-read pages, so the rest of the loop's one-pass reads were
    // turned away; read a second time page 49 is hotter than the bar.
    assert!(c.stats().admission_rejected_fills > 0);
    assert_eq!(c.admission_bar(), 1);
    let rejected = c.stats().admission_rejected_fills;
    let reread = c.op(CacheOp::read(49));
    assert_eq!(c.stats().admission_rejected_fills, rejected);
    assert!(reread.access.needs_disk_read);
    assert!(c.op(CacheOp::read(49)).access.hit);
}

#[test]
fn soft_error_storm_is_survivable() {
    // Failure injection: a huge transient error rate. Most reads carry
    // a bit error, but BCH t=1 corrects singles and the consistent-
    // failure gate stops the controller thrashing; a rare double is an
    // uncorrectable read served from disk.
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 8),
            wear: WearConfig {
                transient_errors_per_read: 0.5,
                ..WearConfig::default()
            },
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut disk_refetches = 0u64;
    for i in 0..20_000u64 {
        let out = c.op(CacheOp::read(i % 64)).access;
        if out.uncorrectable {
            disk_refetches += 1;
        }
    }
    let s = c.stats();
    assert!(
        s.uncorrectable_reads > 0,
        "a 0.5/read soft-error rate must occasionally exceed t=1"
    );
    assert_eq!(s.uncorrectable_reads, disk_refetches);
    // The storm must not have killed the device: soft errors are not wear.
    assert!(!c.is_dead());
    assert_eq!(s.retired_blocks, 0);
    c.check_invariants().unwrap();
    // And the data is re-fetchable: reads still succeed afterwards.
    assert!(c.op(CacheOp::read(1)).access.hit || c.op(CacheOp::read(1)).access.needs_disk_read);
}

#[test]
fn uncorrectable_dirty_page_is_counted_as_lost_not_flushed() {
    // A dirty page whose flash copy rots cannot be flushed — the cache
    // must not pretend it wrote good data to disk.
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 8),
            wear: WearConfig {
                transient_errors_per_read: 3.0, // almost every read fails t=1
                ..WearConfig::default()
            },
            ..FlashConfig::default()
        },
        controller: ControllerPolicy::FixedEcc { strength: 1 },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    c.op(CacheOp::write(5));
    let before_flush = c.stats().flushed_dirty_pages;
    let out = c.op(CacheOp::read(5)).access;
    if out.uncorrectable {
        // The lost dirty copy must not appear in the flushed count.
        assert_eq!(c.stats().flushed_dirty_pages, before_flush);
    }
    c.check_invariants().unwrap();
}

#[test]
fn write_only_workload_never_touches_read_region_blocks() {
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(20, 8),
            ..FlashConfig::default()
        },
        split: SplitPolicy::Split {
            write_fraction: 0.2,
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    for i in 0..5_000u64 {
        c.op(CacheOp::write(i % 64));
    }
    // Read-region blocks must have zero erases: all churn is contained.
    let mut read_region_erases = 0u64;
    for b in c.snapshot().blocks {
        if b.region == crate::tables::RegionKind::Read {
            read_region_erases += c.device().erase_count(nand_flash::BlockId(b.block));
        }
    }
    assert_eq!(
        read_region_erases, 0,
        "pure write traffic must not erase read-region blocks"
    );
    c.check_invariants().unwrap();
}

#[test]
fn read_only_workload_never_flushes() {
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 4),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut flushed = 0u64;
    for i in 0..10_000u64 {
        flushed += c.op(CacheOp::read(i % 2_000)).access.flushed_dirty as u64;
    }
    assert_eq!(flushed, 0, "clean pages never owe disk writes");
    assert_eq!(c.stats().flushed_dirty_pages, 0);
    assert!(c.stats().evictions > 0, "capacity pressure must evict");
}

#[test]
fn interleaved_read_write_same_page_yields_single_mapping() {
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 8),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..5_000 {
        if rng.gen_bool(0.5) {
            c.op(CacheOp::read(7));
        } else {
            c.op(CacheOp::write(7));
        }
        assert!(c.cached_pages() <= 1);
    }
    assert_eq!(c.cached_pages(), 1);
    c.check_invariants().unwrap();
}

#[test]
fn wear_migration_across_regions_keeps_data_reachable() {
    // Force wear imbalance so migration moves a read-region block's
    // content; every cached page must remain readable afterwards.
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(12, 4),
            ..FlashConfig::default()
        },
        wear_threshold: 10.0,
        ..FlashCacheConfig::default()
    })
    .unwrap();
    // Cold read content.
    for p in 0..40u64 {
        c.op(CacheOp::read(p));
    }
    // Hammer writes to age the write region far beyond the read blocks.
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..40_000 {
        c.op(CacheOp::write(40 + rng.gen_range(0..10u64)));
    }
    assert!(c.stats().wear_migrations > 0, "imbalance must trigger §3.6");
    c.check_invariants().unwrap();
    // All write-set pages still readable (hit or honest miss, no panic).
    for p in 40..50u64 {
        let out = c.op(CacheOp::read(p)).access;
        assert!(out.hit || out.needs_disk_read);
    }
}

#[test]
fn counter_decay_prevents_everything_going_hot() {
    // With decay, a uniformly-read working set larger than the decay
    // window must not mass-promote to SLC.
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(16, 8),
            ..FlashConfig::default()
        },
        hot_threshold: 4,
        ..FlashCacheConfig::default()
    })
    .unwrap();
    for i in 0..100_000u64 {
        c.op(CacheOp::read(i % 1_500)); // uniform scan over more pages than slots/4
    }
    assert!(
        c.slc_fraction() < 0.5,
        "uniform traffic must not promote wholesale, got {:.2}",
        c.slc_fraction()
    );
    c.check_invariants().unwrap();
}

#[test]
fn zipf_traffic_promotes_only_the_hot_head() {
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(16, 8),
            ..FlashConfig::default()
        },
        hot_threshold: 4,
        ..FlashCacheConfig::default()
    })
    .unwrap();
    // 90% of reads to 8 hot pages, the rest across 1000.
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..60_000 {
        let p = if rng.gen_bool(0.9) {
            rng.gen_range(0..8u64)
        } else {
            rng.gen_range(8..1_000u64)
        };
        c.op(CacheOp::read(p));
    }
    let s = c.stats();
    assert!(s.hot_promotions >= 8, "the head must be promoted");
    let frac = c.slc_fraction();
    assert!(
        frac > 0.0 && frac < 0.4,
        "promotion must be selective, got {frac:.2}"
    );
    // Hot page reads now run at SLC latency (25µs + decode < MLC 50µs + decode).
    let hot = c.op(CacheOp::read(0)).access.latency_us;
    assert!(hot < 50.0 + EccLatencyModel::decode_us(1), "hot={hot}");
}

#[test]
fn flush_interacts_correctly_with_eviction_accounting() {
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 4),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut flushed_during_writes = 0u64;
    for p in 0..30u64 {
        flushed_during_writes += c.op(CacheOp::write(p)).access.flushed_dirty as u64;
    }
    let explicit = c.flush_writes();
    // Every dirty page was flushed exactly once: either pushed out by
    // write-region pressure or drained by the explicit flush.
    assert_eq!(explicit + flushed_during_writes, 30);
    // After the flush, evictions of those pages owe no further writes.
    let flushed_before = c.stats().flushed_dirty_pages;
    for p in 1_000..4_000u64 {
        c.op(CacheOp::read(p)); // pressure out the old write pages
    }
    let flushed_by_eviction = c.stats().flushed_dirty_pages - flushed_before;
    assert_eq!(
        flushed_by_eviction, 0,
        "clean (already-flushed) pages must evict without disk writes"
    );
    c.check_invariants().unwrap();
}

#[test]
fn stats_latency_accounting_is_internally_consistent() {
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 8),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut foreground = 0.0;
    for i in 0..2_000u64 {
        let out = if i % 4 == 0 {
            c.op(CacheOp::write(i % 300)).access
        } else {
            c.op(CacheOp::read(i % 300)).access
        };
        foreground += out.latency_us;
    }
    let s = c.stats();
    assert!((s.foreground_us - foreground).abs() < 1e-6);
    // Device busy time accounts for everything the cache did, including GC.
    let device_busy = c.device().stats().busy_us;
    assert!(device_busy > 0.0);
    assert!(
        s.ecc_us <= s.foreground_us,
        "ECC time is part of foreground"
    );
}

#[test]
fn write_heavy_device_reaches_total_failure_without_orphans() {
    // Regression: wear-level migration used to orphan a block (outside
    // every allocator list) when end-of-life uncorrectable reads dropped
    // all migrated pages, leaving the device undying forever. A
    // write-dominated workload with shared hot sets reproduces it.
    let mut c = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: geometry(8, 4),
            wear: WearConfig::default().accelerated(1e6),
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let mut steps = 0u64;
    while !c.is_dead() && steps < 4_000_000 {
        let p = rng.gen_range(0..400u64);
        if rng.gen_bool(0.77) {
            c.op(CacheOp::write(p));
        } else {
            c.op(CacheOp::read(p));
        }
        steps += 1;
    }
    assert!(
        c.is_dead(),
        "device must reach total failure within {steps} steps"
    );
    c.check_invariants().unwrap();
}
