//! Pinned differentials of the device clock at the cache layer.
//!
//! A [`FlashCache`] on a serial channel configuration must be
//! **byte-identical** whichever way the device was told to build it:
//! `TimingBackend::ClosedForm`, which ignores the configured `channel`
//! (that is what the retained enum means), or
//! `TimingBackend::EventDriven` with the serial config. Same per-access
//! outcomes (latency bits included), same stats, same table snapshot,
//! same exported metrics.

use disk_trace::{OpKind, WorkloadSpec};
use flashcache_core::{AccessOutcome, CacheOp, FlashCache, FlashCacheConfig};
use nand_flash::{ChannelConfig, FlashConfig, FlashGeometry, TimingBackend};

/// Small geometry so the trace overflows the cache and exercises fills,
/// eviction, GC, and erase traffic — every maintenance path that now
/// routes through the scheduler.
fn config(backend: TimingBackend) -> FlashCacheConfig {
    config_with(backend, ChannelConfig::default())
}

fn config_with(backend: TimingBackend, channel: ChannelConfig) -> FlashCacheConfig {
    FlashCacheConfig::builder()
        .flash(FlashConfig {
            geometry: FlashGeometry {
                blocks: 128,
                pages_per_block: 32,
            },
            timing_backend: backend,
            channel,
            ..FlashConfig::default()
        })
        .build()
        .expect("test geometry is valid")
}

/// The page-granular op stream of `n` requests of the scaled alpha1 trace.
fn ops(seed: u64, n: usize) -> Vec<CacheOp> {
    let reqs = WorkloadSpec::alpha1()
        .scaled(64)
        .generator(seed)
        .take_requests(n);
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

/// Replays one trace through the closed-form backend and through
/// `other`, and demands byte-identical outcomes, stats, snapshot and
/// exported metrics.
fn assert_byte_identical_to_closed_form(other: FlashCacheConfig) {
    let mut oracle = FlashCache::new(config(TimingBackend::ClosedForm)).expect("valid config");
    let mut event = FlashCache::new(other).expect("valid config");

    let a = drive(&mut oracle, 0x0811_2026, 6_000);
    let b = drive(&mut event, 0x0811_2026, 6_000);
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "outcome diverged at access {i}");
        assert_eq!(
            x.latency_us.to_bits(),
            y.latency_us.to_bits(),
            "latency bits diverged at access {i}"
        );
        assert_eq!(y.queue_wait_us.to_bits(), 0.0f64.to_bits());
        assert_eq!(
            x.background_us.to_bits(),
            y.background_us.to_bits(),
            "background bits diverged at access {i}"
        );
    }

    assert_eq!(oracle.stats(), event.stats(), "cache stats must match");
    assert_eq!(
        oracle.snapshot(),
        event.snapshot(),
        "table snapshot must match"
    );
    assert_eq!(
        oracle.export_metrics(),
        event.export_metrics(),
        "metric registries must match"
    );
}

#[test]
fn serial_event_backend_is_byte_identical_to_closed_form() {
    assert_byte_identical_to_closed_form(config_with(
        TimingBackend::EventDriven,
        ChannelConfig::default(),
    ));
}

#[test]
fn closed_form_backend_ignores_the_channel_config() {
    let eight = ChannelConfig::builder()
        .channels(8)
        .planes(2)
        .queue_depth(8)
        .build()
        .expect("valid channel config");
    assert_byte_identical_to_closed_form(config_with(TimingBackend::ClosedForm, eight));
}

fn lanes_4x2() -> nand_flash::ChannelConfigBuilder {
    ChannelConfig::builder().channels(4).planes(2)
}

fn event_config(channel: nand_flash::ChannelConfigBuilder) -> FlashCacheConfig {
    config_with(
        TimingBackend::EventDriven,
        channel.build().expect("valid channel config"),
    )
}

/// Placement is a function of lane topology, never of modeled time: two
/// event-driven devices with the same channels x planes but different
/// queue depth and bus time put every page in the same slot. (What
/// *does* move placement is the lane count: the write
/// frontier is as wide as the device has lanes.)
#[test]
fn placement_follows_lane_topology_not_modeled_time() {
    let mut lean = FlashCache::new(event_config(lanes_4x2().queue_depth(1))).unwrap();
    let mut deep = FlashCache::new(event_config(lanes_4x2().queue_depth(8).xfer_us(25.0))).unwrap();

    let a = drive(&mut lean, 0x0811_2026, 6_000);
    let b = drive(&mut deep, 0x0811_2026, 6_000);
    // Everything in an outcome but its three time sums.
    let functional = |o: &AccessOutcome| AccessOutcome {
        latency_us: 0.0,
        queue_wait_us: 0.0,
        background_us: 0.0,
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
        lean.device_mut().drain_timing(),
        deep.device_mut().drain_timing(),
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
    let mut serial = FlashCache::new(config(TimingBackend::ClosedForm)).unwrap();
    let mut striped = FlashCache::new(event_config(lanes_4x2().queue_depth(4))).unwrap();
    let ops = ops(0x0811_2026, 6_000);
    let mut first_eviction = None;
    for (i, &op) in ops.iter().enumerate() {
        let (x, y) = (serial.op(op).access, striped.op(op).access);
        if first_eviction.is_none() {
            assert_eq!(x.hit, y.hit, "hit/miss diverged at access {i}");
            assert_eq!(x.tier, y.tier, "service tier diverged at access {i}");
            assert_eq!(
                x.needs_disk_read, y.needs_disk_read,
                "disk routing diverged at access {i}"
            );
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
        "closed form never queues"
    );
    assert!(
        striped.device().stats().wait_us > 0.0,
        "the multi-lane device must observe queue wait from background traffic"
    );
}
