//! Pinned differentials of the device clock at the cache layer.
//!
//! A [`FlashCache`] on a serial channel configuration must be
//! **byte-identical** whichever way its ops go through the scheduler:
//! the closed-form arm (`TimingBackend::ClosedForm`, trace off) or the
//! general event path (`TimingBackend::EventDriven` with the serial
//! config and tracing on). Same per-access outcomes (latency bits
//! included), same stats, same table snapshot, same exported metrics,
//! same observability registry. `ClosedForm` also ignores the
//! configured `channel`: that is what the retained enum means.

use std::sync::Arc;

use disk_trace::{OpKind, WorkloadSpec};
use flash_obs::ObsSink;
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
                ..FlashGeometry::default()
            },
            timing_backend: backend,
            channel,
            ..FlashConfig::default()
        })
        .build()
        .expect("test geometry is valid")
}

fn drive(cache: &mut FlashCache, seed: u64, n: usize) -> Vec<AccessOutcome> {
    let reqs = WorkloadSpec::alpha1()
        .scaled(64)
        .generator(seed)
        .take_requests(n);
    let mut outs = Vec::new();
    for req in &reqs {
        for page in req.pages() {
            outs.push(match req.op {
                OpKind::Read => cache.op(CacheOp::read(page)).access,
                OpKind::Write => cache.op(CacheOp::write(page)).access,
            });
        }
    }
    outs
}

/// Replays one trace through the closed-form arm and through `other`,
/// and demands byte-identical outcomes, stats, snapshot and registries.
fn assert_byte_identical_to_closed_form(other: FlashCacheConfig) {
    let mut oracle = FlashCache::new(config(TimingBackend::ClosedForm)).expect("valid config");
    let mut event = FlashCache::new(other).expect("valid config");
    let oracle_sink = Arc::new(ObsSink::with_capacity(256));
    let event_sink = Arc::new(ObsSink::with_capacity(256));
    oracle.attach_sink(Arc::clone(&oracle_sink));
    event.attach_sink(Arc::clone(&event_sink));

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

    oracle.flush_obs();
    event.flush_obs();
    assert_eq!(
        oracle_sink.registry(),
        event_sink.registry(),
        "observability registries must match"
    );
}

#[test]
fn serial_event_backend_is_byte_identical_to_closed_form() {
    // Tracing on keeps a serial config off the closed-form arm.
    let traced = ChannelConfig::builder()
        .trace_capacity(64)
        .build()
        .expect("valid channel config");
    assert!(traced.is_serial());
    assert_byte_identical_to_closed_form(config_with(TimingBackend::EventDriven, traced));
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

/// The non-serial event backend keeps the same *functional* behaviour
/// (hits, misses, table contents) while the timing diverges: GC and fill
/// traffic now overlaps across channels, so queue wait becomes visible
/// and accumulated device wait is non-zero.
#[test]
fn parallel_event_backend_preserves_functional_behaviour() {
    let parallel = {
        let mut cfg = config(TimingBackend::EventDriven);
        cfg.flash.channel = ChannelConfig::builder()
            .channels(4)
            .planes(2)
            .queue_depth(4)
            .build()
            .expect("valid channel config");
        cfg
    };
    let mut oracle = FlashCache::new(config(TimingBackend::ClosedForm)).expect("valid config");
    let mut event = FlashCache::new(parallel).expect("valid config");

    let a = drive(&mut oracle, 0x0811_2026, 6_000);
    let b = drive(&mut event, 0x0811_2026, 6_000);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.hit, y.hit, "hit/miss diverged at access {i}");
        assert_eq!(x.tier, y.tier, "service tier diverged at access {i}");
        assert_eq!(
            x.needs_disk_read, y.needs_disk_read,
            "disk routing diverged at access {i}"
        );
    }
    // Placement must not depend on timing: compare the structural
    // snapshot fields (the embedded stats/FGST legitimately differ in
    // their time sums, since latency now includes queue wait).
    let sa = oracle.snapshot();
    let sb = event.snapshot();
    assert_eq!(sa.tick, sb.tick);
    assert_eq!(sa.cached_pages, sb.cached_pages);
    assert_eq!(sa.usable_slots, sb.usable_slots);
    assert_eq!(sa.slc_fraction, sb.slc_fraction);
    assert_eq!(
        sa.regions, sb.regions,
        "region state must not depend on timing"
    );
    assert_eq!(
        sa.blocks, sb.blocks,
        "block placement must not depend on timing"
    );
    assert_eq!(sa.wear, sb.wear);

    let s = oracle.stats();
    let p = event.stats();
    assert_eq!((s.reads, s.writes, s.erases), (p.reads, p.writes, p.erases));
    assert_eq!(s.flash_reads, p.flash_reads);
    assert_eq!(s.flash_programs, p.flash_programs);
    assert_eq!(
        oracle.device().stats().wait_us,
        0.0,
        "closed form never queues"
    );
    assert!(
        event.device().stats().wait_us > 0.0,
        "parallel backend must observe queue wait from background traffic"
    );
}
