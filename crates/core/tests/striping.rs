//! Lane striping at the cache layer: where a multi-lane device puts
//! pages depends on its lane topology alone, and until the first page
//! leaves, a striped cache caches what the serial one does.

use disk_trace::{OpKind, WorkloadSpec};
use flashcache_core::{AccessOutcome, CacheOp, FlashCache, FlashCacheConfig};
use nand_flash::{ChannelConfig, ChannelConfigBuilder, FlashConfig, FlashGeometry};

/// Small geometry so the trace overflows the cache and exercises fills,
/// eviction, GC, and erase traffic — every maintenance path that
/// routes through the scheduler.
fn config(channel: ChannelConfig) -> FlashCacheConfig {
    FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry {
                blocks: 128,
                pages_per_block: 32,
            },
            channel,
            ..FlashConfig::default()
        })
        .build()
        .expect("test geometry is valid")
}

/// The page-granular op stream of `n` requests of the scaled alpha1 trace.
fn ops(seed: u64, n: usize) -> Vec<CacheOp> {
    let reqs: Vec<_> = WorkloadSpec::alpha1()
        .scaled(64)
        .generator(seed)
        .take(n)
        .collect();
    let mut ops = Vec::new();
    for req in &reqs {
        for page in req.pages() {
            ops.push(match req.op {
                OpKind::Read => CacheOp::read(page),
                OpKind::Write => CacheOp::write(page),
            });
        }
    }
    ops
}

fn drive(cache: &mut FlashCache, seed: u64, n: usize) -> Vec<AccessOutcome> {
    let ops = ops(seed, n);
    ops.iter().map(|&op| cache.op(op).access).collect()
}

fn lanes_4x2() -> ChannelConfigBuilder {
    ChannelConfig::builder().channels(4).planes(2)
}

fn striped_config(channel: ChannelConfigBuilder) -> FlashCacheConfig {
    config(channel.build().expect("valid channel config"))
}

/// Placement is a function of lane topology, never of modeled time: two
/// devices with the same channels x planes but different queue depth
/// put every page in the same slot. (What
/// *does* move placement is the lane count: the write
/// frontier is as wide as the device has lanes.)
#[test]
fn placement_follows_lane_topology_not_modeled_time() {
    let mut lean = FlashCache::new(striped_config(lanes_4x2().queue_depth(1))).unwrap();
    let mut deep = FlashCache::new(striped_config(lanes_4x2().queue_depth(8))).unwrap();

    let a = drive(&mut lean, 0x0811_2026, 6_000);
    let b = drive(&mut deep, 0x0811_2026, 6_000);
    // Everything in an outcome but its two time sums.
    let functional = |o: &AccessOutcome| AccessOutcome {
        latency_us: 0.0,
        queue_wait_us: 0.0,
        ..*o
    };
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(functional(x), functional(y), "outcome diverged at {i}");
    }
    let (sa, sb) = (lean.snapshot(), deep.snapshot());
    assert!(
        sa.regions[0].open_blocks.len() > 1,
        "eight lanes must widen the read frontier"
    );
    assert_eq!(sa.regions, sb.regions, "frontier, free lists and spares");
    assert_eq!(sa.blocks, sb.blocks, "block placement");
    assert_eq!(sa.wear, sb.wear);
    assert_ne!(
        lean.device().makespan_us(),
        deep.device().makespan_us(),
        "the two devices must actually differ in modeled time"
    );
}

/// Striping changes *where* a page lands, so once pages leave — a block
/// evicted whole in block-LRU order, or a write-region compaction
/// flushing the victim's unread pages — a multi-lane cache and the
/// serial one hold different pages. Until the first page leaves either
/// cache they cannot differ in what is cached; over the whole run both
/// stay internally consistent. (The paper's premise is only that
/// placement is invisible while nothing has been removed; "pages leave
/// by whole-block eviction alone" was ours.)
#[test]
fn multi_lane_cache_agrees_with_serial_until_the_first_eviction() {
    let mut serial = FlashCache::new(config(ChannelConfig::default())).unwrap();
    let mut striped = FlashCache::new(striped_config(lanes_4x2().queue_depth(4))).unwrap();
    let ops = ops(0x0811_2026, 6_000);
    let mut first_eviction = None;
    for (i, &op) in ops.iter().enumerate() {
        let (x, y) = (serial.op(op).access, striped.op(op).access);
        if first_eviction.is_none() {
            assert_eq!(x.hit, y.hit, "hit/miss diverged at access {i}");
            assert_eq!(x.bypassed, y.bypassed, "bypass diverged at access {i}");
            let left = |c: &FlashCache| c.stats().evictions + c.stats().gc_dropped_pages;
            if left(&serial) + left(&striped) > 0 {
                first_eviction = Some(i);
            }
        }
        if i % 1024 == 0 {
            serial.check_invariants().unwrap();
            striped.check_invariants().unwrap();
        }
    }
    let first_eviction = first_eviction.expect("the trace overflows 128 blocks");
    assert!(
        first_eviction > 2_000 && first_eviction < ops.len() - 2_000,
        "both phases must be exercised, first eviction at {first_eviction} of {}",
        ops.len()
    );
    serial.check_invariants().unwrap();
    striped.check_invariants().unwrap();
    let (s, p) = (serial.stats(), striped.stats());
    assert_eq!((s.reads, s.writes), (p.reads, p.writes));
    assert_eq!(
        serial.device().stats().wait_us,
        0.0,
        "the serial device never queues"
    );
    assert!(
        striped.device().stats().wait_us > 0.0,
        "the multi-lane device must observe queue wait from background traffic"
    );
}
